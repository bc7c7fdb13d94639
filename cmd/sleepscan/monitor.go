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

// runMonitor runs the monitor subcommand, reporting progress on stdout. A
// campaign that stops without completing and without draining is an error:
// a fatal monitor error, or shards quarantined below the quorum.
func runMonitor(argv []string) error {
	fs := flag.NewFlagSet("sleepscan monitor", flag.ContinueOnError)
	c := campaignFlags(fs)
	outPath := fs.String("o", "", "write the completed study (JSON) to this file")
	if err := fs.Parse(argv); err != nil {
		return errUsage
	}

	cfg, stopTick, err := c.monitorConfig()
	if err != nil {
		return err
	}
	defer stopTick()
	m, err := monitor.New(cfg)
	if err != nil {
		return explainWALError(err, *c.walDir)
	}

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
	case err != nil:
		return explainWALError(err, *c.walDir)
	case len(res.Quarantined) > 0:
		return fmt.Errorf("stopped after %v without completing: shards %v crash-looped into quarantine", elapsed, res.Quarantined)
	case res.Completed:
		fmt.Printf("campaign complete in %v (%d shard restarts)\n", elapsed, res.Restarts)
		st, err := res.Study()
		if err != nil {
			return err
		}
		if *outPath != "" {
			data, err := st.Encode()
			if err != nil {
				return err
			}
			if err := durable.WriteFileAtomic(*outPath, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("study written to %s (%d blocks)\n", *outPath, len(st.Blocks))
		}
	case res.Drained:
		fmt.Printf("drained cleanly after %v (%d shard restarts)\n", elapsed, res.Restarts)
		if *c.walDir != "" {
			fmt.Println("resume with:", c.resumeHint())
		} else {
			fmt.Println("no -wal directory: the drained progress is not recoverable")
		}
	}
	return c.dumpMetrics()
}
