package main

// What `sleepscan monitor` and `sleepscan serve` share: the campaign's
// flags, the world and monitor configuration they describe, and the
// exit-time metrics dump.

import (
	"flag"
	"fmt"
	"os"
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
	blocks, rounds, shards, snapEvery *int
	seed                              *uint64
	outages                           *float64
	walDir, metricsOut                *string
	syncWAL, withMetrics              *bool
	reg                               *metrics.Registry
}

// campaignFlags registers the campaign's flags on fs.
func campaignFlags(fs *flag.FlagSet) *campaign {
	return &campaign{
		blocks:      fs.Int("blocks", 500, "number of /24 blocks in the world"),
		rounds:      fs.Int("rounds", 131, "rounds to monitor (131 x 11 min is about one day)"),
		shards:      fs.Int("shards", 4, "worker shards (execution detail; results are shard-count independent)"),
		seed:        fs.Uint64("seed", 42, "seed"),
		outages:     fs.Float64("outages", 0.15, "base outage episodes per block-week (0 disables)"),
		walDir:      fs.String("wal", "", "durability directory; re-run with the same value to resume"),
		syncWAL:     fs.Bool("sync", false, "fsync every WAL record (power-cut safe, slower)"),
		snapEvery:   fs.Int("snapshot-every", 16, "snapshot each shard every N rounds"),
		withMetrics: fs.Bool("metrics", false, "report run-cost metrics on stdout when done"),
		metricsOut:  fs.String("metricsout", "", "write the metrics snapshot (JSON) to this file"),
		reg:         metrics.New(),
	}
}

// monitorConfig generates the world the (parsed) flags describe and returns
// the monitor configuration over it. stop releases the watchdog's ticker.
func (c *campaign) monitorConfig() (cfg monitor.Config, stop func()) {
	w, err := world.Generate(world.Config{
		Blocks:              *c.blocks,
		Seed:                *c.seed,
		OutagesPerBlockWeek: *c.outages,
	})
	fatal(err)
	// The watchdog only needs tick arrival, not tick values, so the wall
	// clock never reaches the measurement.
	tick := time.NewTicker(2 * time.Second)
	return monitor.Config{
		Net:           w.Net,
		Start:         analysis.DefaultStart,
		Rounds:        *c.rounds,
		Shards:        *c.shards,
		Seed:          *c.seed,
		WALDir:        *c.walDir,
		SyncWAL:       *c.syncWAL,
		SnapshotEvery: *c.snapEvery,
		WatchdogTick:  tick.C,
		Metrics:       c.reg,
	}, tick.Stop
}

// dumpMetrics reports the run's metrics as the -metrics and -metricsout
// flags ask.
func (c *campaign) dumpMetrics() {
	if *c.withMetrics {
		fmt.Println("\nrun metrics:")
		fmt.Print(report.Metrics(c.reg.Snapshot()))
	}
	if *c.metricsOut != "" {
		f, err := os.Create(*c.metricsOut)
		fatal(err)
		fatal(c.reg.Snapshot().WriteJSON(f))
		fatal(f.Close())
		fmt.Printf("metrics snapshot written to %s\n", *c.metricsOut)
	}
}
