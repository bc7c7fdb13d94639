// Package dataset persists measurement results: studies (per-block
// classifications with their covariates) can be saved to a versioned,
// compressed binary format and reloaded, and exported to CSV for external
// tools — the equivalent of the paper's published datasets (the authors
// release their availability and diurnal analyses through the LANDER
// project; this module's datasets play that role for the simulation).
package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/durable"
	"sleepnet/internal/metrics"
	"sleepnet/internal/timeseries"
)

// magic and version identify the file format.
const (
	magic   = "SLEEPNET"
	version = 1
)

// ErrFormat reports an unrecognized or incompatible file.
var ErrFormat = errors.New("dataset: unrecognized format")

// BlockRecord is the persisted form of one measured block.
type BlockRecord struct {
	ID              uint32
	Country         string
	Region          string
	Lat, Lon        float64
	ASN             int
	Org             string
	LinkType        string
	Slash8          int
	AllocDate       time.Time
	Class           int // core.DiurnalClass
	Phase           float64
	StrongestCPD    float64
	Days            int
	ProbesSent      int64
	OutageEpisodes  int
	OutageDownRound int
	Sparse          bool
}

// Dataset is a persisted study.
type Dataset struct {
	// Meta describes the campaign.
	CreatedAt time.Time
	Seed      uint64
	Days      int
	Rounds    int
	Blocks    []BlockRecord
	// Metrics is the run-cost snapshot of the campaign that produced the
	// dataset (probes sent, rounds, per-phase tallies). Zero-valued for
	// uninstrumented runs and for files written before the field existed —
	// gob decodes both identically, so the format version stays at 1.
	Metrics metrics.Snapshot
}

// FromStudy converts a study into its persistable form.
func FromStudy(st *analysis.Study) *Dataset {
	ds := &Dataset{
		CreatedAt: st.Cfg.Start,
		Seed:      st.Cfg.Seed,
		Rounds:    st.Cfg.Rounds,
		Days:      int(float64(st.Cfg.Rounds) * timeseries.DefaultRound.Hours() / 24),
		Blocks:    make([]BlockRecord, 0, len(st.Blocks)),
	}
	for _, b := range st.Blocks {
		if b.ErrMsg != "" {
			continue
		}
		rec := BlockRecord{
			ID:              uint32(b.Info.ID),
			Country:         b.Info.Country.Code,
			Region:          b.Info.Country.Region,
			Lat:             b.Info.Lat,
			Lon:             b.Info.Lon,
			ASN:             b.Info.ASN,
			Org:             b.Info.OrgName,
			LinkType:        b.Info.LinkType,
			Slash8:          b.Info.Slash8,
			AllocDate:       b.Info.AllocDate,
			Class:           int(b.Class),
			Phase:           b.Phase,
			StrongestCPD:    b.StrongestCPD,
			Days:            b.Days,
			ProbesSent:      b.ProbesSent,
			OutageEpisodes:  b.Outage.Episodes,
			OutageDownRound: b.Outage.DownRounds,
			Sparse:          b.Sparse,
		}
		ds.Blocks = append(ds.Blocks, rec)
	}
	return ds
}

// DiurnalClass recovers the typed class of a record.
func (r BlockRecord) DiurnalClass() core.DiurnalClass { return core.DiurnalClass(r.Class) }

// Write serializes the dataset (gzip-compressed gob with a magic header).
func (d *Dataset) Write(w io.Writer) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	if _, err := w.Write([]byte{version}); err != nil {
		return fmt.Errorf("dataset: writing version: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(d); err != nil {
		return fmt.Errorf("dataset: encoding: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("dataset: finishing compression: %w", err)
	}
	return nil
}

// Read deserializes a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header (%v)", ErrFormat, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head[:len(magic)])
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, head[len(magic)])
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	defer zr.Close()
	var d Dataset
	if err := gob.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decoding: %w", err)
	}
	return &d, nil
}

// Save writes the dataset to a file crash-safely (durable.WriteFileAtomic):
// a power cut cannot leave the final path pointing at a half-written
// dataset.
func (d *Dataset) Save(path string) error {
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// csvHeader lists the exported columns.
var csvHeader = []string{
	"block", "country", "region", "lat", "lon", "asn", "org", "link",
	"slash8", "alloc_date", "class", "phase", "strongest_cpd", "days",
	"probes", "outage_episodes", "outage_down_rounds", "sparse",
}

// ExportCSV writes the per-block records as CSV.
func (d *Dataset) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: csv header: %w", err)
	}
	for _, b := range d.Blocks {
		row := []string{
			blockString(b.ID),
			b.Country, b.Region,
			strconv.FormatFloat(b.Lat, 'f', 4, 64),
			strconv.FormatFloat(b.Lon, 'f', 4, 64),
			strconv.Itoa(b.ASN), b.Org, b.LinkType,
			strconv.Itoa(b.Slash8),
			b.AllocDate.Format("2006-01-02"),
			core.DiurnalClass(b.Class).String(),
			strconv.FormatFloat(b.Phase, 'f', 4, 64),
			strconv.FormatFloat(b.StrongestCPD, 'f', 4, 64),
			strconv.Itoa(b.Days),
			strconv.FormatInt(b.ProbesSent, 10),
			strconv.Itoa(b.OutageEpisodes),
			strconv.Itoa(b.OutageDownRound),
			strconv.FormatBool(b.Sparse),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func blockString(id uint32) string {
	return fmt.Sprintf("%d.%d.%d/24", byte(id>>24), byte(id>>16), byte(id>>8))
}

// Summary reports headline statistics of a dataset.
type Summary struct {
	Blocks, Measured, Sparse       int
	Strict, Relaxed, NonDiurnal    int
	StrictFraction, EitherFraction float64
}

// Summarize computes headline statistics.
func (d *Dataset) Summarize() Summary {
	var s Summary
	s.Blocks = len(d.Blocks)
	for _, b := range d.Blocks {
		if b.Sparse {
			s.Sparse++
			continue
		}
		s.Measured++
		switch core.DiurnalClass(b.Class) {
		case core.StrictDiurnal:
			s.Strict++
		case core.RelaxedDiurnal:
			s.Relaxed++
		default:
			s.NonDiurnal++
		}
	}
	if s.Measured > 0 {
		s.StrictFraction = float64(s.Strict) / float64(s.Measured)
		s.EitherFraction = float64(s.Strict+s.Relaxed) / float64(s.Measured)
	}
	return s
}
