package main

// What `sleepscan monitor` and `sleepscan serve` share: the campaign's
// flags, the world and monitor configuration they describe, and the
// exit-time metrics dump.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/report"
	"sleepnet/internal/world"
)

// campaign holds the parsed flags of a monitored campaign and the registry
// its run reports into.
type campaign struct {
	blocks, rounds, shards *int
	seed                   *uint64
	outages                *float64
	walDir, metricsOut     *string
	syncWAL, withMetrics   *bool
	reg                    *metrics.Registry
}

// campaignFlags registers the campaign's flags on fs.
func campaignFlags(fs *flag.FlagSet) *campaign {
	return &campaign{
		blocks:      fs.Int("blocks", 500, "number of /24 blocks in the world"),
		rounds:      fs.Int("rounds", 400, "rounds to monitor, 11 min each; a block has a class from round 299, two whole UTC days after the 17:18 UTC start"),
		shards:      fs.Int("shards", 4, "worker shards (execution detail; results are shard-count independent)"),
		seed:        fs.Uint64("seed", 42, "seed"),
		outages:     fs.Float64("outages", 0.15, "base outage episodes per block-week (0 disables)"),
		walDir:      fs.String("wal", "", "durability directory; re-run with the same value to resume"),
		syncWAL:     fs.Bool("sync", false, "fsync every WAL record (power-cut safe, slower)"),
		withMetrics: fs.Bool("metrics", false, "report run-cost metrics on stdout when done"),
		metricsOut:  fs.String("metricsout", "", "write the metrics snapshot (JSON) to this file"),
		reg:         metrics.New(),
	}
}

// worldConfig is the world the (parsed) flags describe.
func (c *campaign) worldConfig() world.Config {
	return world.Config{
		Blocks:              *c.blocks,
		Seed:                *c.seed,
		OutagesPerBlockWeek: *c.outages,
	}
}

// resumeHint is the command that resumes this campaign from its -wal
// directory: the directory and every flag that the world or the WAL's
// identity derives from. A flag left out would either be refused by the
// WAL (-shards) or silently probe another world (-outages).
func (c *campaign) resumeHint() string {
	return strings.Join([]string{"sleepscan monitor",
		"-wal", *c.walDir,
		"-blocks", strconv.Itoa(*c.blocks),
		"-rounds", strconv.Itoa(*c.rounds),
		"-shards", strconv.Itoa(*c.shards),
		"-seed", strconv.FormatUint(*c.seed, 10),
		"-outages", strconv.FormatFloat(*c.outages, 'g', -1, 64),
	}, " ")
}

// monitorConfig generates the world the (parsed) flags describe and returns
// the monitor configuration over it. stop releases the watchdog's ticker.
func (c *campaign) monitorConfig() (cfg monitor.Config, stop func(), err error) {
	w, err := world.Generate(c.worldConfig())
	if err != nil {
		return monitor.Config{}, nil, err
	}
	// The watchdog only needs tick arrival, not tick values, so the wall
	// clock never reaches the measurement.
	tick := time.NewTicker(2 * time.Second)
	return monitor.Config{
		Net:          w.Net,
		Start:        analysis.DefaultStart,
		Rounds:       *c.rounds,
		Shards:       *c.shards,
		Seed:         *c.seed,
		WALDir:       *c.walDir,
		SyncWAL:      *c.syncWAL,
		WatchdogTick: tick.C,
		Metrics:      c.reg,
	}, tick.Stop, nil
}

// dumpMetrics reports the run's metrics as the -metrics and -metricsout
// flags ask.
func (c *campaign) dumpMetrics() error {
	if *c.withMetrics {
		fmt.Println("\nrun metrics:")
		fmt.Print(report.Metrics(c.reg.Snapshot()))
	}
	if *c.metricsOut != "" {
		f, err := os.Create(*c.metricsOut)
		if err != nil {
			return err
		}
		if err := c.reg.Snapshot().WriteJSON(f); err != nil {
			_ = f.Close() // best effort: the write error is the one to surface
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *c.metricsOut)
	}
	return nil
}
