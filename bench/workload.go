package main

import (
	"fmt"
	"os"
	"runtime"
)

// Fixed load shape. These are constants, not derived from the host's core
// count, so that a result means the same thing on every machine that runs
// it: two workers, two shards, two client connections.
const (
	loadWorkers = 2
	loadShards  = 2
	loadConns   = 2

	// A run repeats its set-up at least minSetupReps times, and goes on until
	// it has spent setupSeconds on it or made maxSetupReps; setup_s is the
	// median. The first set-ups of a process pay for fresh pages from the
	// kernel and are routinely the slowest, so seven leave a stable middle
	// for the second-long set-up of serve-mixed; the millisecond set-ups of
	// the small worlds need many more samples to say anything.
	minSetupReps = 7
	maxSetupReps = 100
	setupSeconds = 1.0
	// minReps is the fewest timed repetitions a run accepts however short
	// --seconds is.
	minReps = 3
)

// env is what the command line hands a workload.
type env struct {
	seed    uint64
	seconds float64
	// scratch is a directory inside the checkout's build area for files the
	// workload writes (WAL directories); the run removes what it creates.
	scratch string
	// spans, when set, is where a traced run writes its spans.
	spans string
}

// workload is one named set of inputs with its two kinds of run.
type workload struct {
	name string
	why  string
	// run is the untraced run: it reports every end-to-end metric.
	run func(env) (*result, error)
	// trace is the traced run: it reports the per-layer metrics.
	trace func(env) (*result, error)
}

var workloads = []workload{
	{
		name:  "study-14d",
		why:   "the sleepscan path: probe, estimate, clean, FFT-classify and join a 14-day world; no ground truth, no WAL, no socket",
		run:   runStudy,
		trace: traceStudy,
	},
	{
		name:  "truth-7d",
		why:   "the paper's section-3 validation: ground-truth enumeration (Block.TrueA) dominates, which study-14d never calls",
		run:   runTruth,
		trace: traceTruth,
	},
	{
		name:  "monitor-wal",
		why:   "serve's write side: WAL append, rotate, seal, snapshots and epoch publish dominate; probing is the small part",
		run:   runMonitor,
		trace: traceMonitor,
	},
	{
		name:  "serve-mixed",
		why:   "serve's read side over loopback sockets against a sealed 1M-block epoch: front door, parse, admission, lookup, JSON; no probing, no WAL",
		run:   runServe,
		trace: traceServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeatSetup runs setup repeatedly (see minSetupReps), collecting between
// runs so each starts from the same heap, and records the times under the
// given metric (setup_s on an untraced run). The last set-up's product is the
// one the workload goes on to use.
func repeatSetup(res *result, metric string, setup func() error) error {
	var times []float64
	total := 0.0
	for len(times) < minSetupReps || (total < setupSeconds && len(times) < maxSetupReps) {
		runtime.GC()
		t0 := nanos()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, secondsSince(t0))
		total += times[len(times)-1]
	}
	res.setAll(metric, times)
	res.Phases["setup"] = total
	return nil
}

// timedReps repeats rep until the measuring budget is spent (and at least
// minReps times), timing only what rep does between its own start and
// return. The heap is collected, untimed, before each repetition, so that a
// repetition's garbage is its own and peak_rss_mb does not depend on where
// the collector happened to be. It records wall_s and cpu_s per repetition and peak_rss_mb once.
// after, when non-nil, runs untimed after each repetition: output checks
// and clean-up belong there.
func timedReps(res *result, seconds float64, rep func() error, after func() error) error {
	var wall, cpu []float64
	start := nanos()
	for len(wall) < minReps || secondsSince(start) < seconds {
		runtime.GC() // every repetition starts from a collected heap
		c0 := cpuSeconds()
		t0 := nanos()
		if err := rep(); err != nil {
			return err
		}
		wall = append(wall, secondsSince(t0))
		cpu = append(cpu, cpuSeconds()-c0)
		if after != nil {
			if err := after(); err != nil {
				return err
			}
		}
	}
	res.Reps = len(wall)
	res.setAll("wall_s", wall)
	res.setAll("cpu_s", cpu)
	res.Phases["measure"] = secondsSince(start)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}

// check turns a failed output check into the error that fails the run.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("output check failed: "+format, args...)
}

// tempDir makes a fresh directory under the run's scratch area.
func (e env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.scratch, pattern)
}
