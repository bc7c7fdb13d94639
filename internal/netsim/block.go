package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BlockID identifies a /24 prefix by its upper 24 bits; the low byte of the
// packed value is zero. 1.9.21/24 is BlockID(0x01091500).
type BlockID uint32

// MakeBlockID packs the three prefix octets of a /24.
func MakeBlockID(a, b, c byte) BlockID {
	return BlockID(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8)
}

// String renders the prefix as "a.b.c/24".
func (id BlockID) String() string {
	return fmt.Sprintf("%d.%d.%d/24", byte(id>>24), byte(id>>16), byte(id>>8))
}

// Addr returns the full address of host h within the block.
func (id BlockID) Addr(h byte) Addr { return Addr{Block: id, Host: h} }

// Addr is one IPv4 address: a /24 block plus the host octet.
type Addr struct {
	Block BlockID
	Host  byte
}

// String renders the dotted-quad address.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a.Block>>24), byte(a.Block>>16), byte(a.Block>>8), a.Host)
}

// key packs the address for PRF use.
func (a Addr) key() uint64 { return uint64(a.Block) | uint64(a.Host) }

// IP returns the address as four octets (for IPv4 encapsulation).
func (a Addr) IP() [4]byte {
	return [4]byte{byte(a.Block >> 24), byte(a.Block >> 16), byte(a.Block >> 8), a.Host}
}

// AddrFromIP converts four octets into an Addr.
func AddrFromIP(ip [4]byte) Addr {
	return Addr{Block: MakeBlockID(ip[0], ip[1], ip[2]), Host: ip[3]}
}

// Interval is a half-open time span [Start, End).
type Interval struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Block is one simulated /24: 256 address behaviours plus path
// characteristics and an outage schedule.
//
// Register the block with Network.AddBlock, and again after changing
// Behaviors: delivery and ground truth both cache what they derive from
// them. Probes to one block are delivered by one goroutine at a time;
// ground truth (TrueA, TrueCounts) may be asked by any number of
// goroutines, alongside delivery. Neither may race with AddBlock.
type Block struct {
	ID BlockID
	// Behaviors maps host octet to behaviour; nil entries never respond.
	Behaviors [256]Behavior
	// Loss is the probability a probe or its reply is lost in transit
	// (applied once per round trip).
	Loss float64
	// LatencyBase and LatencyJitter shape the reported round-trip time.
	LatencyBase   time.Duration
	LatencyJitter time.Duration
	// Outages lists spans when the whole block is unreachable.
	Outages []Interval
	// Hops is the path length from the vantage point; zero derives a
	// deterministic 8..23 from the block id. Probes whose IPv4 TTL cannot
	// cover the path die in transit.
	Hops int
	// ReplyRateLimit caps ICMP replies per minute for the whole block
	// (real gateways rate-limit echo responses); zero means unlimited.
	ReplyRateLimit int
	// GatewayUnreachableProb is the probability that, while the block is
	// in an outage, an upstream gateway answers a probe with an ICMP
	// destination-unreachable instead of silence — a negative-but-
	// informative answer, unlike a timeout.
	GatewayUnreachableProb float64
	// Seed decorrelates this block's loss/latency draws from other blocks.
	Seed uint64

	rl rateLimitState
	// dmemo caches per-host day bounds and quantum draws (allocated at
	// AddBlock when any host is Diurnal or Intermittent). Like rl, it
	// mutates on the delivery path and relies on the existing invariant
	// that one block is probed by at most one goroutine at a time.
	dmemo *[256]hostMemo
	// hops caches the effective path length (set by AddBlock), so the
	// per-packet TTL check does not rederive it. Zero means "not yet
	// registered": PathHops falls back to the live computation, and
	// ground truth to the reference loop.
	hops int
	// plan is the ground-truth enumeration plan: nil until the first
	// TrueCounts of a registered block, cleared by AddBlock. Unlike rl and
	// dmemo it is never touched by delivery and is safe for concurrent
	// callers (see truthPlan).
	plan atomic.Pointer[truthPlan]
}

// hostUp evaluates host's behavior at now, routing Diurnal and
// Intermittent draws through the block's per-host memo when present —
// bit-identical to bh.Up(now), minus the repeated per-day normal deviates
// and per-quantum uniforms.
func (b *Block) hostUp(host byte, bh Behavior, now time.Time) bool {
	if b.dmemo != nil {
		switch d := bh.(type) {
		case Diurnal:
			return d.upMemo(now, &b.dmemo[host])
		case Intermittent:
			return d.upMemo(now, &b.dmemo[host])
		}
	}
	return bh.Up(now)
}

// rateLimitState tracks the per-minute reply budget.
type rateLimitState struct {
	mu     sync.Mutex
	window int64
	count  int
}

// allowReply charges one reply against the block's per-minute budget.
func (b *Block) allowReply(t time.Time) bool {
	if b.ReplyRateLimit <= 0 {
		return true
	}
	w := t.Unix() / 60
	b.rl.mu.Lock()
	defer b.rl.mu.Unlock()
	if w != b.rl.window {
		b.rl.window = w
		b.rl.count = 0
	}
	if b.rl.count >= b.ReplyRateLimit {
		return false
	}
	b.rl.count++
	return true
}

// PathHops returns the effective hop count.
func (b *Block) PathHops() int {
	if b.hops != 0 {
		return b.hops
	}
	if b.Hops > 0 {
		return b.Hops
	}
	return 8 + int(uint64(b.ID)>>8%16)
}

// InOutage reports whether the block is down at t.
func (b *Block) InOutage(t time.Time) bool {
	for _, iv := range b.Outages {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// EverActive returns the host octets whose behaviour ever responds — the
// E(b) set that ground truth availability and Trinocular's address walk are
// defined over.
func (b *Block) EverActive() []byte {
	var out []byte
	for h := 0; h < 256; h++ {
		if bh := b.Behaviors[h]; bh != nil && bh.EverActive() {
			out = append(out, byte(h))
		}
	}
	return out
}

// TrueA returns ground-truth availability at t: the fraction of E(b)
// answering, as a survey probing every address would measure. Blocks with
// empty E(b) report 0.
func (b *Block) TrueA(t time.Time) float64 {
	up, ever := b.TrueCounts(t)
	if ever == 0 {
		return 0
	}
	return float64(up) / float64(ever)
}

// TrueCounts returns how many addresses of E(b) answer at t, accounting
// for block outages but not path loss, and |E(b)| itself.
//
// A registered block answers from its truth plan, built on the first call
// after AddBlock from the Behaviors of that moment: changing Behaviors
// afterwards takes a fresh AddBlock to be seen here. TrueCounts may be
// called from any number of goroutines, also while probes are being
// delivered to the block; like probing, it must not race with AddBlock. A
// block literal that was never registered is enumerated host by host.
func (b *Block) TrueCounts(t time.Time) (up, ever int) {
	if b.hops == 0 {
		return b.trueCountsRef(t)
	}
	p := b.plan.Load()
	if p == nil {
		// Racing first callers build equal plans; whichever is stored last
		// serves from then on.
		p = newTruthPlan(&b.Behaviors)
		b.plan.Store(p)
	}
	if b.InOutage(t) {
		return 0, p.ever
	}
	return p.up(t), p.ever
}

// trueCountsRef is TrueCounts by definition: ask every behaviour in turn.
// It serves unregistered blocks and is the oracle the plan is tested
// against.
func (b *Block) trueCountsRef(t time.Time) (up, ever int) {
	down := b.InOutage(t)
	for h := 0; h < 256; h++ {
		bh := b.Behaviors[h]
		if bh == nil || !bh.EverActive() {
			continue
		}
		ever++
		if !down && bh.Up(t) {
			up++
		}
	}
	return up, ever
}

// truthPlan is E(b) sorted once by behaviour type, so that enumerating
// ground truth converts the instant once and then runs a tight typed loop
// per column instead of two interface calls and a full redraw per host.
// The columns are immutable after construction. days is the only mutable
// part: an immutable table swapped in whole, so concurrent callers on
// different days cost each other rebuilds but never see a mixed table.
type truthPlan struct {
	ever     int // |E(b)|
	alwaysUp int // AlwaysOn, and Intermittent with P >= 1
	diurnal  []Diurnal
	inter    []Intermittent // 0 < P < 1 on the default quantum
	other    []Behavior     // Periodic, custom quanta, behaviours defined elsewhere
	days     atomic.Pointer[dayTable]
}

// dayTable holds every diurnal host's realized on-period for one day and
// the day before (whose tail may spill past midnight), indexed like
// truthPlan.diurnal: the per-day noise is drawn once per host-day instead
// of on every query.
type dayTable struct {
	day              int64
	today, yesterday []onPeriod
}

func newTruthPlan(behaviors *[256]Behavior) *truthPlan {
	p := new(truthPlan)
	for _, bh := range behaviors {
		if bh == nil || !bh.EverActive() {
			continue
		}
		p.ever++
		switch v := bh.(type) {
		case AlwaysOn:
			p.alwaysUp++
		case Diurnal:
			p.diurnal = append(p.diurnal, v)
		case Intermittent:
			switch {
			case v.P >= 1:
				p.alwaysUp++
			case v.Quantum <= 0:
				p.inter = append(p.inter, v)
			default:
				p.other = append(p.other, bh)
			}
		default:
			p.other = append(p.other, bh)
		}
	}
	return p
}

// up counts the hosts answering at t, outages aside.
func (p *truthPlan) up(t time.Time) int {
	sec := secondsSinceEpoch(t)
	q := roundQuantum(sec)
	up := p.alwaysUp
	if len(p.diurnal) > 0 {
		day := simDay(sec)
		tab := p.days.Load()
		if tab == nil || tab.day != day {
			tab = &dayTable{day: day, today: p.onPeriods(tab, day), yesterday: p.onPeriods(tab, day-1)}
			p.days.Store(tab)
		}
		for i := range p.diurnal {
			if p.diurnal[i].upAt(sec, q, tab.today[i], tab.yesterday[i]) {
				up++
			}
		}
	}
	for i := range p.inter {
		if p.inter[i].draw(q) {
			up++
		}
	}
	for _, bh := range p.other {
		if bh.Up(t) {
			up++
		}
	}
	return up
}

// onPeriods returns every diurnal host's on-period of day d, taken from
// old when it already holds that day: a survey walking forward in time
// draws each day once and carries today over to yesterday.
func (p *truthPlan) onPeriods(old *dayTable, d int64) []onPeriod {
	if old != nil {
		switch d {
		case old.day:
			return old.today
		case old.day - 1:
			return old.yesterday
		}
	}
	out := make([]onPeriod, len(p.diurnal))
	for i := range p.diurnal {
		out[i] = p.diurnal[i].onPeriod(d)
	}
	return out
}
