package main

// The monitor subcommand runs the measurement as a long-lived crash-tolerant
// service instead of a batch campaign: sharded probing, per-shard WAL and
// snapshots, supervised restarts, and graceful drain on SIGINT/SIGTERM.
// Re-running with the same -wal directory resumes the campaign exactly where
// the committed state left off; the completed study is byte-identical no
// matter how many times the run was interrupted.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/report"
	"sleepnet/internal/world"
)

// explainWALError adds, to a monitor error that means the -wal directory
// cannot be resumed by this campaign, the one line an operator needs: what
// is wrong with the directory and what to do about it. Other errors (and
// nil) pass through.
func explainWALError(err error, walDir string) error {
	if errors.Is(err, monitor.ErrMismatch) {
		return fmt.Errorf("%w\n-wal %s was written by a different campaign (seed, rounds, shards or block set) or by an older on-disk format; use a fresh directory", err, walDir)
	}
	return err
}

func runMonitor(argv []string) {
	fs := flag.NewFlagSet("sleepscan monitor", flag.ExitOnError)
	blocks := fs.Int("blocks", 500, "number of /24 blocks in the world")
	rounds := fs.Int("rounds", 131, "rounds to monitor (131 x 11 min is about one day)")
	shards := fs.Int("shards", 4, "worker shards (execution detail; results are shard-count independent)")
	seed := fs.Uint64("seed", 42, "seed")
	outages := fs.Float64("outages", 0.15, "base outage episodes per block-week (0 disables)")
	walDir := fs.String("wal", "", "durability directory; re-run with the same value to resume")
	syncWAL := fs.Bool("sync", false, "fsync every WAL record (power-cut safe, slower)")
	snapEvery := fs.Int("snapshot-every", 16, "snapshot each shard every N rounds")
	outPath := fs.String("o", "", "write the completed study (JSON) to this file")
	withMetrics := fs.Bool("metrics", false, "report run-cost metrics on stdout when done")
	metricsOut := fs.String("metricsout", "", "write the metrics snapshot (JSON) to this file")
	_ = fs.Parse(argv) // ExitOnError: Parse never returns an error

	w, err := world.Generate(world.Config{
		Blocks:              *blocks,
		Seed:                *seed,
		OutagesPerBlockWeek: *outages,
	})
	fatal(err)

	reg := metrics.New()
	// The watchdog only needs tick arrival, not tick values, so the wall
	// clock never reaches the measurement.
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()

	m, err := monitor.New(monitor.Config{
		Net:           w.Net,
		Start:         analysis.DefaultStart,
		Rounds:        *rounds,
		Shards:        *shards,
		Seed:          *seed,
		WALDir:        *walDir,
		SyncWAL:       *syncWAL,
		SnapshotEvery: *snapEvery,
		WatchdogTick:  tick.C,
		Metrics:       reg,
	})
	fatal(explainWALError(err, *walDir))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Printf("monitoring %d blocks across %d shards for %d rounds", m.NumBlocks(), m.NumShards(), *rounds)
	if *walDir != "" {
		fmt.Printf(" (wal: %s)", *walDir)
	}
	fmt.Println()

	//lint:allow nowallclock: CLI-only elapsed display; never written into datasets or reports
	t0 := time.Now()
	res, err := m.Run(ctx)
	stop()
	//lint:allow nowallclock: CLI-only elapsed display; never written into datasets or reports
	elapsed := time.Since(t0).Round(time.Millisecond)

	switch {
	case err == nil && res.Completed:
		fmt.Printf("campaign complete in %v (%d shard restarts)\n", elapsed, res.Restarts)
		st, serr := res.Study()
		fatal(serr)
		if *outPath != "" {
			data, eerr := st.Encode()
			fatal(eerr)
			fatal(os.WriteFile(*outPath, data, 0o644))
			fmt.Printf("study written to %s (%d blocks)\n", *outPath, len(st.Blocks))
		}
	case err == nil && res.Drained:
		fmt.Printf("drained cleanly after %v (%d shard restarts)\n", elapsed, res.Restarts)
		if *walDir != "" {
			fmt.Printf("resume with: sleepscan monitor -wal %s -blocks %d -rounds %d -seed %d\n",
				*walDir, *blocks, *rounds, *seed)
		} else {
			fmt.Println("no -wal directory: the drained progress is not recoverable")
		}
	case errors.Is(err, monitor.ErrQuarantine), errors.Is(err, monitor.ErrWatchdog):
		fatal(err)
	default:
		fatal(explainWALError(err, *walDir))
		fmt.Printf("stopped after %v without completing (%d shards quarantined)\n", elapsed, len(res.Quarantined))
	}

	if *withMetrics {
		fmt.Println("\nrun metrics:")
		fmt.Print(report.Metrics(reg.Snapshot()))
	}
	if *metricsOut != "" {
		f, ferr := os.Create(*metricsOut)
		fatal(ferr)
		fatal(reg.Snapshot().WriteJSON(f))
		fatal(f.Close())
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
}
