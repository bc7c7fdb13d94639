package faults

import "fmt"

// Level is one named fault intensity in a sweep plan: a label for reports
// and the injector configuration that realizes it.
type Level struct {
	// Label names the fault configuration ("fault-free", "loss=2%",
	// "ratelimit=4/round").
	Label string
	// Config is the injector configuration; the zero Config is fault-free.
	Config Config
}

// SweepLevels builds the canonical fault-sweep plan shared by the
// fault-robustness sweep (analysis.FaultSweep) and serve's live-vs-study
// test (TestEpochClassIsStudyClass): the fault-free baseline first, then
// one level per positive loss rate, then one per positive rate-limit cap.
// Non-positive entries are skipped, so callers can pass sweeps with
// explicit zeros. All levels draw from seed^0xfa17,
// decorrelating fault fates from the simulation's own randomness while
// keeping a given level reproducible across harnesses.
func SweepLevels(seed uint64, lossRates []float64, rateLimits []int) []Level {
	levels := []Level{{Label: "fault-free"}}
	for _, lr := range lossRates {
		if lr <= 0 {
			continue
		}
		levels = append(levels, Level{
			Label:  fmt.Sprintf("loss=%g%%", lr*100),
			Config: Config{Seed: seed ^ 0xfa17, LossRate: lr},
		})
	}
	for _, rl := range rateLimits {
		if rl <= 0 {
			continue
		}
		levels = append(levels, Level{
			Label:  fmt.Sprintf("ratelimit=%d/round", rl),
			Config: Config{Seed: seed ^ 0xfa17, RateLimitPerRound: rl},
		})
	}
	return levels
}
