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
	"os/signal"
	"syscall"
	"time"

	"sleepnet/internal/durable"
	"sleepnet/internal/monitor"
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
	c := campaignFlags(fs)
	outPath := fs.String("o", "", "write the completed study (JSON) to this file")
	_ = fs.Parse(argv) // ExitOnError: Parse never returns an error

	cfg, stopTick := c.monitorConfig()
	defer stopTick()
	m, err := monitor.New(cfg)
	fatal(explainWALError(err, *c.walDir))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Printf("monitoring %d blocks across %d shards for %d rounds", m.NumBlocks(), m.NumShards(), *c.rounds)
	if *c.walDir != "" {
		fmt.Printf(" (wal: %s)", *c.walDir)
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
			fatal(durable.WriteFileAtomic(*outPath, data, 0o644))
			fmt.Printf("study written to %s (%d blocks)\n", *outPath, len(st.Blocks))
		}
	case err == nil && res.Drained:
		fmt.Printf("drained cleanly after %v (%d shard restarts)\n", elapsed, res.Restarts)
		if *c.walDir != "" {
			fmt.Printf("resume with: sleepscan monitor -wal %s -blocks %d -rounds %d -seed %d\n",
				*c.walDir, *c.blocks, *c.rounds, *c.seed)
		} else {
			fmt.Println("no -wal directory: the drained progress is not recoverable")
		}
	case errors.Is(err, monitor.ErrQuarantine), errors.Is(err, monitor.ErrWatchdog):
		fatal(err)
	default:
		fatal(explainWALError(err, *c.walDir))
		fmt.Printf("stopped after %v without completing (%d shards quarantined)\n", elapsed, len(res.Quarantined))
	}

	c.dumpMetrics()
}
