package analysis

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sleepnet/internal/durable"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// A saved study is one JSONL file, written by MeasureWorld when
// StudyConfig.CheckpointPath is set: a header line identifying the campaign,
// one line per measured block appended as blocks complete, and — once every
// block is written — a trailer line marking the study complete. A killed run
// leaves at worst one torn trailing line, which resume discards; everything
// else is recovered, and only the remaining blocks are re-measured.
// LoadStudy reads complete files only.

const studyCheckpointVersion = 2

// studyCheckpointHeader is the campaign's identity: the configuration the
// world was generated from and the study configuration less its
// json:"-" fields. Resume refuses a file whose header encodes differently,
// and LoadStudy rebuilds the world and the pipeline configuration from it.
type studyCheckpointHeader struct {
	Version int          `json:"version"`
	World   world.Config `json:"world"`
	Blocks  int          `json:"blocks"`
	Study   StudyConfig  `json:"study"`
}

type studyCheckpointLine struct {
	Index int            `json:"i"`
	ID    netsim.BlockID `json:"id"`
	Block MeasuredBlock  `json:"block"` // Info nulled out; restored from the world on load
}

// studyCheckpointTrailer is the last line of a complete study. Metrics is
// the snapshot of the registry attached to the run that wrote it — after a
// resume, that run's blocks only — and absent for an uninstrumented run.
type studyCheckpointTrailer struct {
	Complete bool              `json:"complete"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
}

// checkpointWriter appends measured blocks to the checkpoint file; Append is
// safe for concurrent use by the measurement workers.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// Append writes one measured block as a line, straight to the kernel.
// Nothing fsyncs it, and workers keep taking blocks whatever it returns: a
// flushed line survives a process kill, but a power cut may lose the tail
// of the file. Either way resume keeps the lines that made it and
// re-measures every block whose line did not.
func (c *checkpointWriter) Append(i int, mb MeasuredBlock) error {
	line := studyCheckpointLine{Index: i, ID: mb.Info.ID, Block: mb}
	line.Block.Info = nil
	return c.writeLine(&line)
}

func (c *checkpointWriter) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return nil
}

// Finish appends the trailer, with reg's snapshot when reg is non-nil, and
// makes the study durable: fsync the file, close it, fsync its directory.
func (c *checkpointWriter) Finish(reg *metrics.Registry) error {
	trailer := studyCheckpointTrailer{Complete: true}
	if reg != nil {
		snap := reg.Snapshot()
		trailer.Metrics = &snap
	}
	if err := c.writeLine(&trailer); err != nil {
		_ = c.f.Close() // best effort: the write error is the one to surface
		return err
	}
	if err := c.f.Sync(); err != nil {
		_ = c.f.Close() // best effort: the sync error is the one to surface
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	if err := c.f.Close(); err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return durable.SyncDir(filepath.Dir(c.f.Name()))
}

// openCheckpoint prepares the checkpoint file for a study. With Resume set
// and a matching file present, previously measured blocks are loaded into
// the study and reported in done; the file is then rewritten from its valid
// block lines (dropping a torn trailing line, and the trailer of a study
// that was already complete) and reopened for append. Without Resume the
// file is started fresh.
func openCheckpoint(path string, w *world.World, sc StudyConfig, study *Study) (*checkpointWriter, map[int]bool, error) {
	header := studyCheckpointHeader{Version: studyCheckpointVersion, World: w.Config, Blocks: len(w.Blocks), Study: sc}
	want, err := json.Marshal(&header)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	var done map[int]bool
	var recovered []studyCheckpointLine
	if sc.Resume {
		f, err := readStudyFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist) || (err == nil && f == nil):
			// nothing to resume: start fresh
		case err != nil:
			return nil, nil, err
		default:
			if got, err := json.Marshal(&f.header); err != nil || !bytes.Equal(got, want) {
				return nil, nil, fmt.Errorf("analysis: checkpoint %s belongs to a different campaign:\n  file: %s\n  this: %s", path, got, want)
			}
			if done, err = f.restore(path, study); err != nil {
				return nil, nil, err
			}
			recovered = f.lines
		}
	}

	// Rewrite the file from the header plus recovered lines (atomically, so
	// a kill during the rewrite cannot lose them), then reopen for append.
	buf := bytes.NewBuffer(append(want, '\n'))
	enc := json.NewEncoder(buf)
	for i := range recovered {
		if err := enc.Encode(&recovered[i]); err != nil {
			return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
		}
	}
	if err := durable.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return &checkpointWriter{f: af}, done, nil
}

// studyFile is the valid content of a checkpoint file.
type studyFile struct {
	header  studyCheckpointHeader
	lines   []studyCheckpointLine
	trailer *studyCheckpointTrailer // nil until the study is complete
}

// readStudyFile loads the valid lines of a checkpoint file; an empty file
// yields nil. A torn trailing line (killed mid-write) is discarded; a torn
// line anywhere else, or any line after the trailer, is an error.
func readStudyFile(path string) (*studyFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("analysis: checkpoint %s: %w", path, err)
		}
		return nil, nil
	}
	var sf studyFile
	if err := json.Unmarshal(sc.Bytes(), &sf.header); err != nil {
		return nil, fmt.Errorf("analysis: checkpoint %s: bad header: %w", path, err)
	}
	var torn bool
	for n := 2; sc.Scan(); n++ {
		if torn {
			return nil, fmt.Errorf("analysis: checkpoint %s: corrupt line %d (not at end of file)", path, n-1)
		}
		if sf.trailer != nil {
			return nil, fmt.Errorf("analysis: checkpoint %s: line %d follows the trailer", path, n)
		}
		// A line is a block or the trailer; decoding into both tells them
		// apart by the trailer's Complete.
		var line struct {
			studyCheckpointLine
			studyCheckpointTrailer
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			torn = true // tolerated only as the final line
			continue
		}
		if line.Complete {
			sf.trailer = &line.studyCheckpointTrailer
			continue
		}
		sf.lines = append(sf.lines, line.studyCheckpointLine)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analysis: checkpoint %s: %w", path, err)
	}
	return &sf, nil
}

// restore puts the file's blocks into study, each with its Info from
// study.World, and reports which world indexes it filled.
func (sf *studyFile) restore(path string, study *Study) (map[int]bool, error) {
	done := make(map[int]bool, len(sf.lines))
	for _, line := range sf.lines {
		if line.Index < 0 || line.Index >= len(study.World.Blocks) {
			return nil, fmt.Errorf("analysis: checkpoint %s: block index %d out of range", path, line.Index)
		}
		info := study.World.Blocks[line.Index]
		if info.ID != line.ID {
			return nil, fmt.Errorf("analysis: checkpoint %s: block %d is %s, checkpoint says %s (different world?)", path, line.Index, info.ID, line.ID)
		}
		mb := line.Block
		mb.Info = info
		study.Blocks[line.Index] = mb
		done[line.Index] = true
	}
	return done, nil
}

// LoadStudy reads a study that MeasureWorld saved to a CheckpointPath: it
// regenerates the world from the header, restores every block's record with
// its Info, and returns the study with the metrics snapshot of the trailer
// (zero for an uninstrumented run). A file without the trailer — a run that
// was killed or is still going — is refused.
func LoadStudy(path string) (*Study, metrics.Snapshot, error) {
	var none metrics.Snapshot
	sf, err := readStudyFile(path)
	if err != nil {
		return nil, none, err
	}
	if sf == nil {
		return nil, none, fmt.Errorf("analysis: study %s is empty", path)
	}
	if sf.header.Version != studyCheckpointVersion {
		return nil, none, fmt.Errorf("analysis: study %s has format version %d, want %d", path, sf.header.Version, studyCheckpointVersion)
	}
	if sf.trailer == nil {
		return nil, none, fmt.Errorf("analysis: study %s is incomplete: it holds %d of %d blocks; resume the run to finish it (sleepscan -resume -o %s)", path, len(sf.lines), sf.header.Blocks, path)
	}
	w, err := world.Generate(sf.header.World)
	if err != nil {
		return nil, none, fmt.Errorf("analysis: study %s: %w", path, err)
	}
	study := &Study{World: w, Cfg: sf.header.Study.pipelineConfig(), Blocks: make([]MeasuredBlock, len(w.Blocks))}
	done, err := sf.restore(path, study)
	if err != nil {
		return nil, none, err
	}
	if len(done) != len(w.Blocks) {
		return nil, none, fmt.Errorf("analysis: study %s: trailer present but only %d of %d blocks", path, len(done), len(w.Blocks))
	}
	if sf.trailer.Metrics != nil {
		return study, *sf.trailer.Metrics, nil
	}
	return study, none, nil
}

// csvHeader lists WriteCSV's columns.
var csvHeader = []string{
	"block", "country", "region", "lat", "lon", "asn", "org", "link",
	"slash8", "alloc_date", "class", "phase", "strongest_cpd", "days",
	"probes", "outage_episodes", "outage_down_rounds", "sparse",
}

// WriteCSV writes one row per block that did not fail outright, in world
// order, for external tools.
func (s *Study) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("analysis: csv: %w", err)
	}
	for _, b := range s.Blocks {
		if b.ErrMsg != "" {
			continue
		}
		row := []string{
			b.Info.ID.String(),
			b.Info.Country.Code, b.Info.Country.Region,
			strconv.FormatFloat(b.Info.Lat, 'f', 4, 64),
			strconv.FormatFloat(b.Info.Lon, 'f', 4, 64),
			strconv.Itoa(b.Info.ASN), b.Info.OrgName, b.Info.LinkType,
			strconv.Itoa(b.Info.Slash8),
			b.Info.AllocDate.Format("2006-01-02"),
			b.Class.String(),
			strconv.FormatFloat(b.Phase, 'f', 4, 64),
			strconv.FormatFloat(b.StrongestCPD, 'f', 4, 64),
			strconv.Itoa(b.Days),
			strconv.FormatInt(b.ProbesSent, 10),
			strconv.Itoa(b.Outage.Episodes),
			strconv.Itoa(b.Outage.DownRounds),
			strconv.FormatBool(b.Sparse),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("analysis: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
