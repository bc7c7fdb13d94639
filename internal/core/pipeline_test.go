package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

var start = time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)

const testRounds = 14*86400/660 + 60 // a bit over 14 days

// mkDiurnalBlock: 50 always-on + nd diurnal (9:00 for 8h) addresses.
func mkDiurnalBlock(id netsim.BlockID, nd int) *netsim.Block {
	b := &netsim.Block{ID: id, Seed: uint64(id)}
	var hosts netsim.Hosts
	h := 0
	for ; h < 50; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	for ; h < 50+nd; h++ {
		hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: uint64(id) + uint64(h)}
	}
	b.SetHosts(&hosts)
	return b
}

func mkStableBlock(id netsim.BlockID, n int, p float64) *netsim.Block {
	b := &netsim.Block{ID: id, Seed: uint64(id)}
	var hosts netsim.Hosts
	for h := 0; h < n; h++ {
		if p >= 1 {
			hosts[h] = netsim.AlwaysOn{}
		} else {
			hosts[h] = netsim.Intermittent{P: p, Seed: uint64(id) + uint64(h)}
		}
	}
	b.SetHosts(&hosts)
	return b
}

func pipelineOver(blocks ...*netsim.Block) (*Pipeline, *netsim.Network) {
	net := netsim.NewNetwork(99)
	for _, b := range blocks {
		net.AddBlock(b)
	}
	cfg := PipelineConfig{Start: start, Rounds: testRounds, Seed: 5}
	return NewPipeline(net, cfg), net
}

func TestPipelineDetectsDiurnalBlock(t *testing.T) {
	blk := mkDiurnalBlock(netsim.MakeBlockID(27, 186, 9), 100)
	pl, _ := pipelineOver(blk)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Classify(run)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.IsDiurnal() {
		t.Fatalf("diurnal block classified %v (peak %d, diurnal %.1f, next %.1f)",
			res.Class, res.PeakBin, res.DiurnalAmp, res.NextAmp)
	}
	if run.Days < 13 || run.Days > 14 {
		t.Fatalf("Days = %d", run.Days)
	}
	if run.Short.Len() != testRounds {
		t.Fatalf("series len = %d, want %d", run.Short.Len(), testRounds)
	}
	if len(run.Operational) != testRounds {
		t.Fatal("the operational series must cover every round")
	}
}

func TestPipelineStableBlockNonDiurnal(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(1, 9, 21), 42, 1)
	pl, _ := pipelineOver(blk)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := pl.Classify(run); err != nil || res.Class != NonDiurnal {
		t.Fatalf("always-on block classified %v (%v)", res.Class, err)
	}
	// Âs of a fully-up block converges to 1.
	tail := run.Short.Values[run.Short.Len()-1]
	if tail < 0.95 {
		t.Fatalf("final Âs = %v, want ~1", tail)
	}
}

func TestPipelineEstimateTracksLowAvailability(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(93, 208, 233), 245, 0.19)
	pl, _ := pipelineOver(blk)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of the converged half of Âs should be near 0.19.
	var sum float64
	half := run.Short.Values[run.Short.Len()/2:]
	for _, v := range half {
		sum += v
	}
	mean := sum / float64(len(half))
	if math.Abs(mean-0.19) > 0.05 {
		t.Fatalf("mean Âs = %v, want ~0.19", mean)
	}
	// Operational stays at or below truth nearly always after warmup.
	under := 0
	opsTail := run.Operational[len(run.Operational)/2:]
	for _, v := range opsTail {
		if v <= 0.19+1e-9 || v == OperationalFloor {
			under++
		}
	}
	if frac := float64(under) / float64(len(opsTail)); frac < 0.9 {
		t.Fatalf("Âo under truth only %.1f%%", frac*100)
	}
}

func TestPipelineOutageDetected(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(1, 9, 21), 42, 1)
	// Outage spanning rounds ~957-1000.
	oStart := start.Add(957 * 660 * time.Second)
	blk.Outages = []netsim.Interval{{Start: oStart, End: oStart.Add(8 * time.Hour)}}
	pl, _ := pipelineOver(blk)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Outages) != 2 {
		t.Fatalf("outage events = %+v, want down+up", run.Outages)
	}
	if !run.Outages[0].Down || run.Outages[1].Down {
		t.Fatalf("events = %+v", run.Outages)
	}
	if got := run.Outages[0].Round; got < 957 || got > 960 {
		t.Fatalf("outage detected at round %d, want ~957", got)
	}
}

func TestPipelineArtifacts(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(5, 5, 5), 60, 1)
	net := netsim.NewNetwork(3)
	net.AddBlock(blk)
	cfg := PipelineConfig{Start: start, Rounds: testRounds, Seed: 5, MissingRate: 0.03, DuplicateRate: 0.02}
	pl := NewPipeline(net, cfg)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 3% of rounds filled and 2% duplicated.
	fillFrac := float64(run.CleanStats.Filled) / float64(testRounds)
	dupFrac := float64(run.CleanStats.Duplicates) / float64(testRounds)
	if fillFrac < 0.01 || fillFrac > 0.06 {
		t.Fatalf("filled fraction = %v", fillFrac)
	}
	if dupFrac < 0.005 || dupFrac > 0.05 {
		t.Fatalf("duplicate fraction = %v", dupFrac)
	}
	if run.Short.Len() != testRounds {
		t.Fatal("cleaning must restore the full grid")
	}
}

func TestPipelineSparseBlockRejected(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(7, 7, 7), 10, 1)
	pl, _ := pipelineOver(blk)
	if _, err := pl.RunBlock(blk.ID); !errors.Is(err, trinocular.ErrTooSparse) {
		t.Fatalf("want ErrTooSparse, got %v", err)
	}
}

func TestPipelineUnknownBlock(t *testing.T) {
	pl, _ := pipelineOver()
	if _, err := pl.RunBlock(netsim.MakeBlockID(9, 9, 9)); err == nil {
		t.Fatal("unknown block should error")
	}
	if _, err := pl.Survey(netsim.MakeBlockID(9, 9, 9)); err == nil {
		t.Fatal("unknown survey should error")
	}
}

func TestPipelineZeroRounds(t *testing.T) {
	blk := mkStableBlock(netsim.MakeBlockID(8, 8, 8), 60, 1)
	net := netsim.NewNetwork(3)
	net.AddBlock(blk)
	pl := NewPipeline(net, PipelineConfig{Start: start})
	if _, err := pl.RunBlock(blk.ID); err == nil {
		t.Fatal("zero rounds should error")
	}
	if _, err := pl.Survey(blk.ID); err == nil {
		t.Fatal("zero-round survey should error")
	}
}

func TestSurveyGroundTruth(t *testing.T) {
	blk := mkDiurnalBlock(netsim.MakeBlockID(27, 186, 9), 100)
	pl, _ := pipelineOver(blk)
	sv, err := pl.Survey(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Len() != testRounds {
		t.Fatalf("survey len = %d", sv.Len())
	}
	// Ground truth oscillates between 1/3 (night: 50 of 150) and 1 (day).
	min, max := sv.Values[0], sv.Values[0]
	for _, v := range sv.Values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.Abs(min-1.0/3) > 0.02 || math.Abs(max-1) > 1e-9 {
		t.Fatalf("survey range [%v, %v], want [1/3, 1]", min, max)
	}
	// Classifying the survey yields strict diurnal: the §3.2.3 ground truth.
	res, days, err := ClassifySeries(sv)
	if err != nil {
		t.Fatal(err)
	}
	if days < 13 || !res.Class.IsDiurnal() {
		t.Fatalf("survey classification: days=%d class=%v", days, res.Class)
	}
}

func TestEstimateAgreesWithSurveyCorrelation(t *testing.T) {
	// The Fig-4 property in miniature: Âs correlates strongly with true A.
	blk := mkDiurnalBlock(netsim.MakeBlockID(27, 186, 9), 100)
	pl, _ := pipelineOver(blk)
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := pl.Survey(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Pearson by hand over the converged tail.
	a := run.Short.Values[200:]
	b := sv.Values[200:]
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	// The EWMA lags the truth by ~10 rounds, so per-block correlation on a
	// strongly diurnal block is below the paper's pooled 0.96 (which is
	// dominated by stable blocks); strong positive correlation is the
	// invariant.
	r := sab / math.Sqrt(saa*sbb)
	if r < 0.75 {
		t.Fatalf("corr(Âs, A) = %v, want > 0.75", r)
	}
}

func TestClassifySeriesErrors(t *testing.T) {
	short := timeseries.New(start, timeseries.DefaultRound, make([]float64, 10))
	if _, _, err := ClassifySeries(short); err == nil {
		t.Fatal("short series should error")
	}
}

// BenchmarkSurvey7d enumerates a week of ground truth for one diurnal and
// one intermittent block, the two populations the world generator builds.
func BenchmarkSurvey7d(b *testing.B) {
	diurnal := mkDiurnalBlock(netsim.MakeBlockID(27, 186, 9), 100)
	stable := mkStableBlock(netsim.MakeBlockID(27, 186, 10), 100, 0.6)
	net := netsim.NewNetwork(99)
	net.AddBlock(diurnal)
	net.AddBlock(stable)
	pl := NewPipeline(net, PipelineConfig{Start: start, Rounds: 7 * 86400 / 660, Seed: 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range []netsim.BlockID{diurnal.ID, stable.ID} {
			if _, err := pl.Survey(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}
