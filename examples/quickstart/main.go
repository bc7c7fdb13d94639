// Quickstart: build one diurnal /24 block, probe it adaptively with the
// Trinocular-style prober for two weeks of simulated time, estimate its
// availability with the paper's EWMA estimators, and detect its diurnal
// pattern with the spectral test — the whole §2 pipeline on one block.
package main

import (
	"fmt"
	"log"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/timeseries"
)

func main() {
	// 1. A simulated /24: 60 always-on servers and 120 office machines
	//    that are switched on around 09:00 local time for ~9 hours.
	blk := &netsim.Block{ID: netsim.MakeBlockID(192, 0, 2), Seed: 1}
	var hosts netsim.Hosts
	for h := 1; h <= 60; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	for h := 61; h <= 180; h++ {
		hosts[h] = netsim.Diurnal{
			Phase:      9 * time.Hour,
			Duration:   9 * time.Hour,
			StartSigma: 30 * time.Minute,
			Seed:       uint64(h),
		}
	}
	blk.SetHosts(&hosts)
	net := netsim.NewNetwork(7)
	net.AddBlock(blk)

	// 2. Probe it for 14 days, every 11 minutes, 1-15 ICMP probes per
	//    round, exactly as the paper's outage detector would.
	pl := core.NewPipeline(net, core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(14),
		Seed:   7,
	})
	run, err := pl.RunBlock(blk.ID)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Results: availability estimates and the diurnal classification.
	fmt.Printf("block %s over %d days\n", run.ID, run.Days)
	fmt.Printf("probing cost: %d probes (%.1f per hour — the paper budgets < 20)\n",
		run.ProbesSent, float64(run.ProbesSent)/(float64(run.Short.Len())*timeseries.DefaultRound.Seconds()/3600))
	fmt.Println("\nshort-term availability estimate Âs:")
	fmt.Print(report.Series(run.Short.Values, 90, 8))

	res, err := pl.Classify(run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclassification: %s diurnal\n", res.Class)
	fmt.Printf("diurnal FFT bin: %d (N_d = %d), amplitude %.1f vs next strongest %.1f\n",
		res.FundamentalBin, run.Days, res.DiurnalAmp, res.NextAmp)
	fmt.Printf("phase: %.2f rad — when this block wakes up relative to midnight UTC\n", res.Phase)
	fmt.Printf("stationarity slope: %+.4f per day (|slope| must be small for a valid FFT)\n", run.SlopePerDay)
}
