package main

import (
	"fmt"
	"math"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// Ablations of the design choices DESIGN §5 calls out. Each probes one
// hand-built block round by round through trinocular.Prober.ProbeRound, so
// the arm under test is the only thing that differs between its runs.

// oneBlock is a network holding a single block with the given hosts.
func oneBlock(seed uint64, id netsim.BlockID, hosts *netsim.Hosts) (*netsim.Network, *netsim.Block) {
	net := netsim.NewNetwork(seed)
	blk := &netsim.Block{ID: id, Seed: seed}
	blk.SetHosts(hosts)
	net.AddBlock(blk)
	return net, blk
}

// probeRounds probes blk for rounds rounds from the default start, feeding
// each observation to observe and taking the operational estimate for the
// next round from aOp.
func probeRounds(p *trinocular.Prober, blk *netsim.Block, rounds int, aOp func() float64, observe func(r int, now time.Time, obs trinocular.RoundObs)) {
	check(p.AddBlock(blk.ID, blk.EverActive()))
	for r := 0; r < rounds; r++ {
		now := analysis.DefaultStart.Add(time.Duration(r) * timeseries.DefaultRound)
		observe(r, now, must(p.ProbeRound(now, aOp())))
	}
}

func ratioEWMA(e *env) []claim {
	const trueA = 0.5
	e.printf("Ablation: EWMA of p/t directly (A12w) vs separate EWMAs of p and t\n")
	var hosts netsim.Hosts
	for h := 0; h < 200; h++ {
		hosts[h] = netsim.Intermittent{P: trueA, Seed: uint64(h)}
	}
	net, blk := oneBlock(e.seed, netsim.MakeBlockID(10, 9, 9), &hosts)
	sep := core.NewEstimator(trueA)
	ratio := core.NewRatioEstimator(trueA, core.AlphaShort)
	p := trinocular.New(net, trinocular.Config{}, e.seed)
	// Both estimates run at the short-term gain; their bias is the mean
	// error over the rounds after a 200-round warm-up.
	var ratioBias, sepBias float64
	probeRounds(p, blk, 2000, func() float64 { return trueA }, func(r int, _ time.Time, obs trinocular.RoundObs) {
		sep.Observe(obs.Positive, obs.Total)
		ratio.Observe(obs.Positive, obs.Total)
		if r >= 200 {
			ratioBias += (ratio.Estimate() - trueA) / 1800
			sepBias += (sep.ShortTerm() - trueA) / 1800
		}
	})
	e.printf("200 hosts at A = %.1f, rounds 200-2000: ratio bias %+.3f, separate bias %+.3f\n", trueA, ratioBias, sepBias)
	return []claim{
		num("ratio bias", "over-estimates", "%+.3f", 0.03, 0.3, ratioBias),
		num("separate bias", "", "%+.3f", -0.03, 0.03, sepBias),
	}
}

func strictRelaxed(e *env) []claim {
	e.printf("Ablation: the population each diurnal rule admits over the study\n")
	strict, either := e.Study().DiurnalFraction()
	e.printf("strict %s, strict or relaxed %s of measured blocks\n", report.Pct(strict), report.Pct(either))
	return []claim{
		pct("strict", "11%", 0.08, 0.16, strict),
		pct("either", "25%", 0.2, 0.32, either),
	}
}

func gainSweep(e *env) []claim {
	e.printf("Ablation: short-term gain αs vs Âs tracking RMSE on a diurnal block\n")
	var hosts netsim.Hosts
	for h := 0; h < 100; h++ {
		hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: uint64(h)}
	}
	for h := 100; h < 150; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	var claims []claim
	for _, gain := range []float64{0.05, 0.1, 0.2} {
		net, blk := oneBlock(e.seed, netsim.MakeBlockID(11, 0, 0), &hosts)
		est := core.NewEstimatorWithGains(0.5, gain, core.AlphaLong)
		var se float64
		n := 0
		p := trinocular.New(net, trinocular.Config{}, e.seed)
		probeRounds(p, blk, 2000, est.Operational, func(r int, now time.Time, obs trinocular.RoundObs) {
			est.Observe(obs.Positive, obs.Total)
			if r >= 200 {
				d := est.ShortTerm() - blk.TrueA(now)
				se += d * d
				n++
			}
		})
		rmse := math.Sqrt(se / float64(n))
		e.printf("αs = %.2f: RMSE %.3f\n", gain, rmse)
		claims = append(claims, num(fmt.Sprintf("RMSE at αs = %.2f", gain), "", "%.3f", 0.1, 0.3, rmse))
	}
	return claims
}

func probePolicy(e *env) []claim {
	const rounds = 1500
	e.printf("Ablation: stop-on-first-positive vs fixed-10 probing (200 hosts at A = 0.6)\n")
	var hosts netsim.Hosts
	for h := 0; h < 200; h++ {
		hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(h)}
	}
	// perHour returns the probes an hour the policy spends and the long-term
	// estimate it reaches.
	perHour := func(fixed int) (float64, float64) {
		net, blk := oneBlock(e.seed, netsim.MakeBlockID(12, 0, 0), &hosts)
		est := core.NewEstimator(0.6)
		p := trinocular.New(net, trinocular.Config{FixedProbes: fixed}, e.seed)
		probeRounds(p, blk, rounds, est.Operational, func(_ int, _ time.Time, obs trinocular.RoundObs) {
			est.Observe(obs.Positive, obs.Total)
		})
		return float64(p.ProbesSent()) / (rounds * timeseries.DefaultRound.Seconds() / 3600), est.LongTerm()
	}
	adaptive, aEst := perHour(0)
	fixed, fEst := perHour(10)
	e.printf("adaptive: %.1f probes/hour, Âl %.3f\n", adaptive, aEst)
	e.printf("fixed-10: %.1f probes/hour, Âl %.3f\n", fixed, fEst)
	return []claim{
		num("adaptive probes/hour", "< 20", "%.1f", 0, 20, adaptive),
		num("fixed-10 probes/hour", "", "%.1f", 40, 70, fixed),
		num("Âl difference", "", "%.3f", 0, 0.05, math.Abs(aEst-fEst)),
	}
}

func midnightTrim(e *env) []claim {
	e.printf("Ablation: phase of one schedule measured from two campaign starts, with and without the midnight trim\n")
	// Two blocks with the same schedule measured from campaigns starting at
	// different wall-clock times: with trimming, their phases agree; with
	// raw (untrimmed) series, phase depends on campaign start.
	measure := func(offset time.Duration, seed uint64) (*core.BlockRun, core.DiurnalResult) {
		var hosts netsim.Hosts
		for h := 0; h < 50; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 50; h < 170; h++ {
			hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: seed + uint64(h)}
		}
		net, blk := oneBlock(seed, netsim.MakeBlockID(13, 0, 0), &hosts)
		pl := core.NewPipeline(net, core.PipelineConfig{
			Start:  analysis.DefaultStart.Add(offset),
			Rounds: analysis.RoundsForDays(10),
			Seed:   seed,
		})
		run := must(pl.RunBlock(blk.ID))
		return run, must(pl.Classify(run))
	}
	a, aRes := measure(0, e.seed+1)
	c, cRes := measure(7*time.Hour+31*time.Minute, e.seed+2)
	// Untrimmed: classify the raw series directly.
	ra := must(core.DetectDiurnal(a.Short.Values, a.Days))
	rc := must(core.DetectDiurnal(c.Short.Values, c.Days))
	trimmed, raw := angleDiff(aRes.Phase, cRes.Phase), angleDiff(ra.Phase, rc.Phase)
	e.printf("start offset 7h31m: phase differs by %.2f rad trimmed, %.2f rad raw\n", trimmed, raw)
	return []claim{
		num("trimmed phase diff (rad)", "", "%.2f", 0, 0.5, trimmed),
		num("raw phase diff (rad)", "", "%.2f", 1, math.Pi, raw),
	}
}

// angleDiff is the absolute circular distance between two phases.
func angleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	return math.Min(d, 2*math.Pi-d)
}

func fftVsACF(e *env) []claim {
	e.printf("Ablation: spectral (FFT) vs autocorrelation (ACF) detector on clean 14-day series\n")
	days := 14
	n := int(float64(days) * 86400 / timeseries.DefaultRound.Seconds())
	agree := 0
	amps := []float64{0, 0.05, 0.15, 0.3}
	for _, amp := range amps {
		vals := make([]float64, n)
		for i := range vals {
			hour := math.Mod(float64(i)*timeseries.DefaultRound.Seconds()/3600, 24)
			vals[i] = 0.5 + amp*math.Cos(2*math.Pi*(hour-14)/24)
		}
		fft := must(core.DetectDiurnal(vals, days))
		acf := must(core.DetectDiurnalACF(vals, 86400/timeseries.DefaultRound.Seconds()))
		if fft.Class.IsDiurnal() == acf.Diurnal {
			agree++
		}
		e.printf("amplitude %.2f: FFT %s, ACF diurnal=%v\n", amp, fft.Class, acf.Diurnal)
	}
	return []claim{pct("verdicts agree", "", 1, 1, float64(agree)/float64(len(amps)))}
}
