package world

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
)

// Config sizes and seeds a synthetic world.
type Config struct {
	// Blocks is the total number of /24 blocks to generate (the paper
	// measures 3.7M; experiments here scale down while preserving shares).
	Blocks int
	// Seed makes generation fully deterministic.
	Seed uint64
	// OutagesPerBlockWeek is the base rate of whole-block outages
	// (episodes per block per week); the realized per-block rate scales
	// with national infrastructure (lower GDP, more outages). Zero
	// disables outage injection.
	OutagesPerBlockWeek float64
	// DiurnalScale multiplies every country's DiurnalFrac, capped at 0.95,
	// for this world only (Fig 11's drifting surveys). Zero leaves the
	// national table as it is.
	DiurnalScale float64
}

const (
	// centroidFrac is the fraction of blocks whose geolocation is only
	// country-precise and therefore lands on the country centroid (the
	// Fig 12 anomaly).
	centroidFrac = 0.07
	// outageHorizon bounds how far ahead of the simulation epoch outages
	// are scheduled.
	outageHorizon = 70 * 24 * time.Hour
	// meanLoss is the mean per-block packet loss probability.
	meanLoss = 0.01
)

// allocEnd is when IANA exhausted the IPv4 /8 pool.
var allocEnd = time.Date(2011, time.February, 1, 0, 0, 0, 0, time.UTC)

// BlockInfo is the ground-truth record of one generated /24.
type BlockInfo struct {
	ID      netsim.BlockID
	Country *Country
	// Lat, Lon is the true location of the block's users.
	Lat, Lon float64
	// CountryCentroid marks blocks the geolocation database can only place
	// at the country level.
	CountryCentroid bool
	// ASN and OrgName identify the operating network.
	ASN     int
	OrgName string
	// LinkType is the true access technology.
	LinkType string
	// Slash8 is the /8 the block lives in; AllocDate its IANA allocation.
	Slash8    int
	AllocDate time.Time
	// DesignedDiurnal records whether the generator made this block diurnal
	// (ground truth for validation).
	DesignedDiurnal bool
	// Population of the block.
	NumStable, NumDiurnal, NumIntermittent int
	// LocalOnHour is the local-time start of the diurnal on-period.
	LocalOnHour float64
	// LeasePeriod is non-zero when the generator made the block cycle with
	// a DHCP lease period that is not 24 hours (ground truth, like
	// DesignedDiurnal).
	LeasePeriod time.Duration
}

// ISP describes one operator in the synthetic world.
type ISP struct {
	Name    string
	Country string
	ASNs    []int
}

// World is a fully generated synthetic Internet.
type World struct {
	Net    *netsim.Network
	Blocks []*BlockInfo
	ByID   map[netsim.BlockID]*BlockInfo
	// AllocDates maps /8 index to its allocation date.
	AllocDates map[int]time.Time
	// ISPs lists every operator; ASNOrg maps ASN to operator name.
	ISPs   []*ISP
	ASNOrg map[int]string
	// Config is the configuration the world was generated from:
	// Generate(w.Config) rebuilds the same world.
	Config Config
}

// Generate builds a synthetic world of cfg.Blocks /24 blocks.
func Generate(cfg Config) (*World, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("world: Config.Blocks must be positive, got %d", cfg.Blocks)
	}
	w := &World{
		Net:        netsim.NewNetwork(cfg.Seed),
		ByID:       make(map[netsim.BlockID]*BlockInfo),
		AllocDates: make(map[int]time.Time),
		ASNOrg:     make(map[int]string),
		Config:     cfg,
	}
	r := prf.LegacyRand(int64(cfg.Seed) ^ 0x51eef)
	// Every draw from r stays on this goroutine, in generation order; only
	// the block-keyed outage schedules leave it (see outageWorkers).
	sched := startOutageWorkers(cfg)
	built := make([]*netsim.Block, 0, cfg.Blocks) // generation order, registered once sched is done
	total := TotalWeight()
	nextSlash8 := 1
	nextASN := 1000

	for ci := range Countries {
		c := &Countries[ci]
		n := int(math.Round(float64(cfg.Blocks) * c.BlockWeight / total))
		if n < 1 {
			n = 1
		}
		// Address space: one /8 per ~512 blocks, at least 2 so the country
		// has an allocation-date spread.
		num8 := n/512 + 2
		slash8s := make([]int, num8)
		for i := 0; i < num8; i++ {
			s8 := nextSlash8
			nextSlash8++
			if nextSlash8 > 223 {
				nextSlash8 = 1 // wrap; collisions avoided by /16 partitioning below
			}
			slash8s[i] = s8
			// Allocation dates run from the country's first allocation to
			// exhaustion, earlier /8s earlier.
			frac := float64(i) / float64(num8)
			start := time.Date(c.FirstAllocYear, time.January, 1, 0, 0, 0, 0, time.UTC)
			span := allocEnd.Sub(start)
			w.AllocDates[s8] = start.Add(time.Duration(frac * float64(span)))
		}
		isps := makeISPs(c, r, &nextASN)
		w.ISPs = append(w.ISPs, isps...)
		for _, isp := range isps {
			for _, a := range isp.ASNs {
				w.ASNOrg[a] = isp.Name
			}
		}

		diurnalFrac := c.DiurnalFrac
		if cfg.DiurnalScale != 0 {
			diurnalFrac = math.Min(diurnalFrac*cfg.DiurnalScale, 0.95)
		}
		mix := LinkMixFor(c)
		eLink := expectedLinkMult(c)
		// Expected allocation multiplier over this country's /8s.
		var eAlloc float64
		for _, s8 := range slash8s {
			eAlloc += allocDiurnalMult(w.AllocDates[s8])
		}
		eAlloc /= float64(num8)
		norm := eLink * eAlloc
		if norm <= 0 {
			norm = 1
		}

		for bi := 0; bi < n; bi++ {
			s8idx := r.Intn(num8)
			s8 := slash8s[s8idx]
			// Partition /16s within the /8 by country index to avoid ID
			// collisions after wrapping.
			b2 := byte((ci*7 + bi/250) % 256)
			b3 := byte(bi % 250)
			id := netsim.MakeBlockID(byte(s8), b2, b3)
			if _, dup := w.ByID[id]; dup {
				continue // extremely rare with default sizes; skip
			}
			info := &BlockInfo{
				ID:        id,
				Country:   c,
				Slash8:    s8,
				AllocDate: w.AllocDates[s8],
			}
			// Geography.
			if r.Float64() < centroidFrac {
				info.CountryCentroid = true
				info.Lat, info.Lon = c.CenterLat(), c.CenterLon()
			} else {
				info.Lat = c.LatMin + r.Float64()*(c.LatMax-c.LatMin)
				info.Lon = c.LonMin + r.Float64()*(c.LonMax-c.LonMin)
			}
			// Technology.
			info.LinkType = pickLink(mix, r)
			// Operator: zipf-ish preference for the first ISPs.
			isp := isps[zipfPick(len(isps), r)]
			info.OrgName = isp.Name
			info.ASN = isp.ASNs[r.Intn(len(isp.ASNs))]

			// Diurnal decision: country base scaled by technology and
			// allocation age, normalized to keep the country aggregate.
			p := diurnalFrac * LinkDiurnalMultiplier(info.LinkType) *
				allocDiurnalMult(info.AllocDate) / norm
			if p > 0.92 {
				p = 0.92
			}
			info.DesignedDiurnal = r.Float64() < p

			blk := buildBlock(info, cfg, r)
			sched.schedule(blk, c.GDP)
			built = append(built, blk)
			w.Blocks = append(w.Blocks, info)
			w.ByID[id] = info
		}
	}
	sched.wait()
	// AddBlock converts each block's Outages into its span list, so it runs
	// only once every schedule is written.
	for _, blk := range built {
		w.Net.AddBlock(blk)
	}
	sort.Slice(w.Blocks, func(i, j int) bool { return w.Blocks[i].ID < w.Blocks[j].ID })
	return w, nil
}

// allocDiurnalMult encodes the Fig 15 trend: space allocated later (under
// stricter reuse policies) is more often used dynamically and diurnally.
func allocDiurnalMult(d time.Time) float64 {
	startEra := time.Date(1983, time.January, 1, 0, 0, 0, 0, time.UTC)
	frac := d.Sub(startEra).Hours() / allocEnd.Sub(startEra).Hours()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return 0.5 + frac
}

func pickLink(mix []float64, r *rand.Rand) string {
	u := r.Float64()
	var cum float64
	for i, m := range mix {
		cum += m
		if u < cum {
			return LinkTypes[i]
		}
	}
	return LinkTypes[len(LinkTypes)-1]
}

// zipfPick prefers low indices (the big incumbent ISPs).
func zipfPick(n int, r *rand.Rand) int {
	if n <= 1 {
		return 0
	}
	// P(i) ∝ 1/(i+1)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	u := r.Float64() * total
	var cum float64
	for i := 0; i < n; i++ {
		cum += 1 / float64(i+1)
		if u < cum {
			return i
		}
	}
	return n - 1
}

// makeISPs synthesizes a country's operators with clusterable names.
func makeISPs(c *Country, r *rand.Rand, nextASN *int) []*ISP {
	n := 2
	switch {
	case c.BlockWeight > 100:
		n = 6
	case c.BlockWeight > 20:
		n = 4
	case c.BlockWeight > 5:
		n = 3
	}
	patterns := []string{
		"%s Telecom", "%sNet Backbone", "Cable %s", "%s Broadband", "University of %s", "%s Mobile",
	}
	out := make([]*ISP, 0, n)
	for i := 0; i < n; i++ {
		isp := &ISP{
			Name:    fmt.Sprintf(patterns[i%len(patterns)], c.Name),
			Country: c.Code,
		}
		nas := 1 + r.Intn(3)
		for j := 0; j < nas; j++ {
			isp.ASNs = append(isp.ASNs, *nextASN)
			*nextASN++
		}
		out = append(out, isp)
	}
	return out
}

// buildBlock wires the netsim behaviours for one block.
func buildBlock(info *BlockInfo, cfg Config, r *rand.Rand) *netsim.Block {
	blk := &netsim.Block{
		ID:   info.ID,
		Seed: uint64(info.ID) ^ cfg.Seed,
		Loss: clampF(r.ExpFloat64()*meanLoss, 0, 0.2),
	}
	// Two draws of a latency model nothing read: still taken, so that the
	// serial stream, and with it every generated world, stays as it was.
	r.Intn(250)
	r.Intn(40)
	var hosts netsim.Hosts
	host := 1 // leave .0 unused, as in real blocks
	info.NumStable = 20 + r.Intn(41)
	for i := 0; i < info.NumStable && host < 255; i++ {
		hosts[host] = netsim.AlwaysOn{}
		host++
	}
	if info.DesignedDiurnal {
		info.NumDiurnal = 40 + r.Intn(120)
		info.LocalOnHour = clampF(8.5+1.5*r.NormFloat64(), 5, 13)
		utcOn := math.Mod(info.LocalOnHour-info.Lon/15+48, 24)
		for i := 0; i < info.NumDiurnal && host < 255; i++ {
			jitter := r.NormFloat64() * 0.75 // hours
			phase := math.Mod(utcOn+jitter+48, 24)
			dur := clampF(9+1.5*r.NormFloat64(), 4, 16)
			hosts[host] = netsim.Diurnal{
				Phase:         time.Duration(phase * float64(time.Hour)),
				Duration:      time.Duration(dur * float64(time.Hour)),
				StartSigma:    20 * time.Minute,
				DurationSigma: 40 * time.Minute,
				Seed:          uint64(info.ID) + uint64(host)*131,
			}
			host++
		}
	} else if r.Float64() < 0.02 {
		// A small share of blocks cycle with a DHCP lease period that is
		// not 24 hours — the paper's §4 example of non-daily periodicity
		// (addresses handed out sequentially across a region with lease
		// period p show usage with period p). These populate the Fig 10
		// distribution away from 1 cycle/day.
		lease := []time.Duration{7 * time.Hour, 9 * time.Hour, 14 * time.Hour}[r.Intn(3)]
		info.LeasePeriod = lease
		info.NumIntermittent = 60 + r.Intn(80)
		for i := 0; i < info.NumIntermittent && host < 255; i++ {
			hosts[host] = netsim.Periodic{
				Period: lease,
				Duty:   0.4 + 0.3*r.Float64(),
				Offset: time.Duration(r.Int63n(int64(lease))),
			}
			host++
		}
	} else {
		// Non-diurnal blocks get an intermittent population so availability
		// varies across blocks without daily structure. Per-address
		// probabilities are heterogeneous: that heterogeneity is what makes
		// prober-restart walk resets visible (the Fig 10 artifact).
		info.NumIntermittent = r.Intn(120)
		p := 0.3 + 0.65*r.Float64()
		for i := 0; i < info.NumIntermittent && host < 255; i++ {
			pi := clampF(p+0.12*(r.Float64()-0.5), 0.05, 0.98)
			hosts[host] = netsim.Intermittent{P: pi, Seed: uint64(info.ID) + uint64(host)*257}
			host++
		}
	}
	blk.SetHosts(&hosts)
	return blk
}

// outageJob is one block whose outage schedule a worker writes.
type outageJob struct {
	blk *netsim.Block
	gdp float64
}

// outageWorkers computes outage schedules off the generator's serial loop.
// A schedule is a pure function of the block id, its country's GDP and the
// config, and draws nothing from the generator's stream, so GOMAXPROCS
// workers can write them in any order while the loop goes on drawing; the
// world is the same at every worker count. A nil *outageWorkers (a world
// without outages) schedules nothing and starts no goroutine. It is a pool
// of its own, not a par.For, because it consumes blocks while the loop is
// still drawing them: that overlap is what it saves, and par.For deals a
// range that exists before it starts.
type outageWorkers struct {
	cfg  Config
	jobs chan outageJob
	wg   sync.WaitGroup
}

// startOutageWorkers starts the workers, or returns nil when cfg plants no
// outages.
func startOutageWorkers(cfg Config) *outageWorkers {
	if cfg.OutagesPerBlockWeek <= 0 {
		return nil
	}
	n := runtime.GOMAXPROCS(0)
	// 64 jobs a worker let the loop run ahead of a worker that is
	// briefly descheduled instead of stalling on it, while the queue stays
	// a few KB rather than one job a block of the world.
	o := &outageWorkers{cfg: cfg, jobs: make(chan outageJob, 64*n)}
	o.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer o.wg.Done()
			// One source a worker, reseeded per block: Seed(k) restarts the
			// stream rand.NewSource(k) would give, in O(1), and the
			// schedule's few draws build only the state they read.
			r := prf.LegacyRand(0)
			for j := range o.jobs {
				j.blk.Outages = outageSchedule(r, j.blk.ID, j.gdp, o.cfg)
			}
		}()
	}
	return o
}

// schedule hands blk to the workers; blk is not to be touched again until
// wait returns.
func (o *outageWorkers) schedule(blk *netsim.Block, gdp float64) {
	if o != nil {
		o.jobs <- outageJob{blk, gdp}
	}
}

// wait returns once every scheduled block has its outages.
func (o *outageWorkers) wait() {
	if o != nil {
		close(o.jobs)
		o.wg.Wait()
	}
}

// outageSchedule returns block id's whole-block outages over the horizon.
// Rates scale with national infrastructure quality: at the same base rate,
// a $5k-GDP country sees several times the outages of a $50k one — the
// reliability gradient the Trinocular line of work reports. r is reseeded
// with a key of the block id, which keeps outage draws from perturbing the
// rest of generation.
func outageSchedule(r *rand.Rand, id netsim.BlockID, gdp float64, cfg Config) []netsim.Interval {
	r.Seed(int64(uint64(id)*0x9e3779b9 ^ cfg.Seed ^ 0x07a6e))
	mult := clampF(2.6-2.2*gdp/50000, 0.3, 2.6)
	rate := cfg.OutagesPerBlockWeek * mult // episodes per week
	// Poisson process via exponential gaps.
	var out []netsim.Interval
	t := time.Duration(0)
	epoch := time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)
	for {
		gap := time.Duration(r.ExpFloat64() / rate * float64(7*24*time.Hour))
		t += gap
		if t >= outageHorizon {
			return out
		}
		// Lognormal-ish duration around two hours, clamped to [22m, 48h].
		durHours := math.Exp(math.Log(2) + r.NormFloat64())
		dur := time.Duration(clampF(durHours, 0.37, 48) * float64(time.Hour))
		start := epoch.Add(t)
		out = append(out, netsim.Interval{Start: start, End: start.Add(dur)})
		t += dur
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MeanAllocYear returns the mean allocation year of a country's blocks and
// the year of its earliest allocation — the Table 5 "age of allocation"
// factors.
func (w *World) MeanAllocYear(code string) (mean, first float64) {
	var sum float64
	n := 0
	first = math.Inf(1)
	for _, b := range w.Blocks {
		if b.Country.Code != code {
			continue
		}
		y := float64(b.AllocDate.Year()) + float64(b.AllocDate.YearDay())/365
		sum += y
		n++
		if y < first {
			first = y
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return sum / float64(n), first
}
