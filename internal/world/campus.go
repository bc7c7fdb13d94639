package world

import (
	"fmt"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
)

// CampusConfig sizes a university-campus address plan modeled on the
// paper's §3.2.4 USC validation: heavily overprovisioned wireless blocks
// (one address per student, ~10 live at a time, most blocks below the
// prober's 15-active floor), dynamically-assigned pools, and general-use
// building blocks — some of which contain pockets of dynamic addresses
// that make otherwise-static blocks diurnal.
type CampusConfig struct {
	// Wireless is the number of wireless /24s (paper: 142).
	Wireless int
	// Dynamic is the number of DHCP-pool /24s (paper: 32).
	Dynamic int
	// General is the number of general-use building /24s.
	General int
	Seed    uint64
}

// pocketFrac is the fraction of general-use blocks containing a pocket of
// dynamically-assigned (diurnal) addresses (the paper's surprise).
const pocketFrac = 0.15

func (c CampusConfig) withDefaults() CampusConfig {
	if c.Wireless == 0 {
		c.Wireless = 142
	}
	if c.Dynamic == 0 {
		c.Dynamic = 32
	}
	if c.General == 0 {
		c.General = 120
	}
	return c
}

// CampusCategory labels a campus block's true use.
type CampusCategory string

const (
	CampusWireless CampusCategory = "wireless"
	CampusDynamic  CampusCategory = "dynamic"
	CampusGeneral  CampusCategory = "general"
	// CampusGeneralPocket marks general-use blocks with a dynamic pocket.
	CampusGeneralPocket CampusCategory = "general+pocket"
)

// CampusBlock is the ground truth for one campus /24.
type CampusBlock struct {
	ID       netsim.BlockID
	Category CampusCategory
	// ActiveAddrs is the number of ever-active addresses (what probing
	// history would know); wireless blocks are often below the 15-address
	// policy floor.
	ActiveAddrs int
	// TrulyDiurnal records whether the generator gave the block real daily
	// structure.
	TrulyDiurnal bool
}

// Campus is a generated campus network.
type Campus struct {
	Net    *netsim.Network
	Blocks []*CampusBlock
}

// GenerateCampus builds the campus world. The campus sits at the Los
// Angeles longitude so local working hours translate to late-UTC phases,
// matching the USC validation setting.
func GenerateCampus(cfg CampusConfig) (*Campus, error) {
	cfg = cfg.withDefaults()
	total := cfg.Wireless + cfg.Dynamic + cfg.General
	if total == 0 || total > 60000 {
		return nil, fmt.Errorf("world: campus size %d out of range", total)
	}
	r := prf.LegacyRand(int64(cfg.Seed) ^ 0xca3905)
	c := &Campus{Net: netsim.NewNetwork(cfg.Seed)}
	const lonLA = -118.3
	utcShift := -lonLA / 15 // hours to add to local time for UTC

	next := 0
	mkID := func() netsim.BlockID {
		id := netsim.MakeBlockID(128, byte(next>>8), byte(next))
		next++
		return id
	}

	// Wireless: overprovisioned. Roughly ten concurrently-live addresses
	// drawn from a small ever-active set; most blocks fall below the
	// 15-address probing floor.
	for i := 0; i < cfg.Wireless; i++ {
		blk := &netsim.Block{ID: mkID(), Seed: cfg.Seed + uint64(next)}
		var hosts netsim.Hosts
		active := 6 + r.Intn(18) // 6..23 ever-active; many < 15
		for h := 1; h <= active; h++ {
			// Wifi clients: on campus during the day, sparse within it.
			phase := time.Duration((8.5+r.Float64()*2+utcShift)*3600) * time.Second
			hosts[h] = netsim.Diurnal{
				Phase:      phase,
				Duration:   time.Duration((4 + r.Float64()*5) * float64(time.Hour)),
				StartSigma: time.Hour,
				UpProb:     0.55,
				Seed:       cfg.Seed + uint64(next*337+h),
			}
		}
		blk.SetHosts(&hosts)
		c.Net.AddBlock(blk)
		c.Blocks = append(c.Blocks, &CampusBlock{
			ID: blk.ID, Category: CampusWireless, ActiveAddrs: active, TrulyDiurnal: true,
		})
	}

	// Dynamic pools: densely used, assigned sequentially, strongly diurnal.
	for i := 0; i < cfg.Dynamic; i++ {
		blk := &netsim.Block{ID: mkID(), Seed: cfg.Seed + uint64(next)}
		var hosts netsim.Hosts
		active := 60 + r.Intn(120)
		for h := 1; h <= active; h++ {
			phase := time.Duration((8+r.Float64()*1.5+utcShift)*3600) * time.Second
			hosts[h] = netsim.Diurnal{
				Phase:      phase,
				Duration:   time.Duration((8 + r.Float64()*2) * float64(time.Hour)),
				StartSigma: 30 * time.Minute,
				Seed:       cfg.Seed + uint64(next*337+h),
			}
		}
		blk.SetHosts(&hosts)
		c.Net.AddBlock(blk)
		c.Blocks = append(c.Blocks, &CampusBlock{
			ID: blk.ID, Category: CampusDynamic, ActiveAddrs: active, TrulyDiurnal: true,
		})
	}

	// General use: servers and desktops, mostly always-on; a fraction hold
	// a pocket of dynamic addresses (decentralized address management).
	for i := 0; i < cfg.General; i++ {
		blk := &netsim.Block{ID: mkID(), Seed: cfg.Seed + uint64(next)}
		var hosts netsim.Hosts
		stable := 25 + r.Intn(60)
		h := 1
		for ; h <= stable; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		cat := CampusGeneral
		diurnal := false
		if r.Float64() < pocketFrac {
			cat = CampusGeneralPocket
			diurnal = true
			pocket := 16 + r.Intn(30)
			phase := time.Duration((8.5+r.Float64()+utcShift)*3600) * time.Second
			for j := 0; j < pocket && h < 255; j++ {
				hosts[h] = netsim.Diurnal{
					Phase:      phase,
					Duration:   time.Duration((8 + r.Float64()*2) * float64(time.Hour)),
					StartSigma: 45 * time.Minute,
					Seed:       cfg.Seed + uint64(next*337+h),
				}
				h++
			}
		}
		blk.SetHosts(&hosts)
		c.Net.AddBlock(blk)
		c.Blocks = append(c.Blocks, &CampusBlock{
			ID: blk.ID, Category: cat, ActiveAddrs: h - 1, TrulyDiurnal: diurnal,
		})
	}
	return c, nil
}
