// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulated world, plus the extensions and ablations
// EXPERIMENTS.md reports. Run with a list of ids or "all" (every paper
// artifact and extension).
//
// Usage:
//
//	experiments [-blocks N] [-seed N] [-days N] [-quick] all
//	experiments table3 fig16 table5
//	experiments ratioewma gain
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"sleepnet/internal/dsp"
	"sleepnet/internal/metrics"
	"sleepnet/internal/report"
)

var (
	flagBlocks     = flag.Int("blocks", 3000, "blocks in the simulated world")
	flagSeed       = flag.Uint64("seed", 42, "world and measurement seed")
	flagDays       = flag.Int("days", 14, "days of probing for world-scale studies")
	flagQuick      = flag.Bool("quick", false, "smaller populations and sweeps")
	flagPNG        = flag.String("png", "", "directory to write fig12/fig13 world maps as PNG")
	flagMetrics    = flag.Bool("metrics", false, "instrument the runs and print cost metrics at the end")
	flagMetricsOut = flag.String("metricsout", "", "write the metrics snapshot as JSON to this file")
	flagCPUProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	flagMemProfile = flag.String("memprofile", "", "write a pprof heap profile taken after the selected experiments to this file")
)

// exitOn ends the command with err.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, a := range registry {
			if a.kind != ablationKind {
				ids = append(ids, a.id)
			}
		}
		sort.Strings(ids)
	} else {
		for _, id := range args {
			id = strings.ToLower(id)
			if lookup(id) == nil {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				usage()
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	// The heap-profile defer is registered first so it runs after the CPU
	// profile has stopped: its runtime.GC barrier then cannot pollute the
	// CPU samples.
	if *flagMemProfile != "" {
		defer func() {
			f, err := os.Create(*flagMemProfile)
			exitOn(err)
			runtime.GC() // materialize the retained-heap picture
			exitOn(pprof.WriteHeapProfile(f))
			exitOn(f.Close())
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *flagMemProfile)
		}()
	}
	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			exitOn(f.Close())
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *flagCPUProfile)
		}()
	}
	e := newEnv(os.Stdout, *flagSeed, *flagBlocks, *flagDays, *flagQuick)
	e.pngDir = *flagPNG
	if *flagMetrics || *flagMetricsOut != "" {
		e.metrics = metrics.New()
		dsp.SetMetrics(e.metrics)
		defer dsp.SetMetrics(nil)
	}
	// Every requested id runs; a gating claim outside its band fails the
	// run once all of them have reported.
	var failed []string
	for _, id := range ids {
		e.printf("\n===== %s =====\n", id)
		claims, err := e.run(lookup(id))
		exitOn(err)
		failed = append(failed, gateMisses(id, claims)...)
	}
	if e.metrics != nil {
		snap := e.metrics.Snapshot()
		if *flagMetrics {
			fmt.Println("\n===== run metrics =====")
			fmt.Print(report.Metrics(snap))
		}
		if *flagMetricsOut != "" {
			f, err := os.Create(*flagMetricsOut)
			exitOn(err)
			exitOn(snap.WriteJSON(f))
			exitOn(f.Close())
			fmt.Printf("metrics snapshot written to %s\n", *flagMetricsOut)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintln(os.Stderr, "experiments: gating claims failed:", strings.Join(failed, "; "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [flags] <all | ids...>")
	for _, kind := range []string{paperKind, extensionKind, ablationKind} {
		var ids []string
		for _, a := range registry {
			if a.kind == kind {
				ids = append(ids, a.id)
			}
		}
		fmt.Fprintf(os.Stderr, "%s ids: %s\n", kind, strings.Join(ids, " "))
	}
	fmt.Fprintln(os.Stderr, "all runs every paper and extension id")
	flag.PrintDefaults()
}
