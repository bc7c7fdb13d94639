package netsim

import (
	"fmt"
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

// Block is one simulated /24: its hosts plus path loss and an outage
// schedule.
//
// The hosts are given once, through SetHosts, and kept as a compact typed
// host table (see hostTable) that delivery and ground truth both answer
// from; an address that never responds costs two bytes. Register the block
// with Network.AddBlock, and again after changing Outages: delivery reads
// the schedule AddBlock converted. Probes to one block are delivered by one
// goroutine at a time; ground truth (TrueA, TrueCounts) may be asked by any
// number of goroutines, alongside delivery. Neither may race with SetHosts
// or AddBlock.
type Block struct {
	ID BlockID
	// Loss is the probability a probe or its reply is lost in transit
	// (applied once per round trip).
	Loss float64
	// Outages lists spans when the whole block is unreachable.
	Outages []Interval
	// GatewayUnreachableProb is the probability that, while the block is
	// in an outage, an upstream gateway answers a probe with an ICMP
	// destination-unreachable instead of silence — a negative-but-
	// informative answer, unlike a timeout.
	GatewayUnreachableProb float64
	// Seed decorrelates this block's loss and gateway draws from other
	// blocks.
	Seed uint64

	// hosts is nil until SetHosts: a block without hosts has an empty E(b).
	hosts *hostTable
	// outages is Outages as AddBlock found them, in the form the per-round
	// outage lookup reads.
	outages []nsSpan
}

// nsSpan is an Interval in Unix nanoseconds.
type nsSpan struct{ start, end int64 }

// SetHosts gives the block its addresses, replacing any it had. The spec is
// compiled into the block's host table; hosts itself is not retained and
// may be reused for the next block.
func (b *Block) SetHosts(hosts *Hosts) { b.hosts = compileHosts(hosts) }

// InOutage reports whether the block is down at t.
func (b *Block) InOutage(t time.Time) bool {
	for _, iv := range b.Outages {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// downAt is InOutage for a registered block at Unix nanosecond ns.
func (b *Block) downAt(ns int64) bool {
	for _, o := range b.outages {
		if ns >= o.start && ns < o.end {
			return true
		}
	}
	return false
}

// EverActive returns the host octets whose behaviour ever responds, in
// ascending order — the E(b) set that ground truth availability and
// Trinocular's address walk are defined over. The slice is the caller's.
func (b *Block) EverActive() []byte {
	if b.hosts == nil {
		return nil
	}
	return append([]byte(nil), b.hosts.ever...)
}

// NumEverActive returns |E(b)|.
func (b *Block) NumEverActive() int {
	if b.hosts == nil {
		return 0
	}
	return len(b.hosts.ever)
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
// for block outages but not path loss, and |E(b)| itself: the survey
// kernel behind TrueSeries, over one instant. It may be called from any
// number of goroutines, also while probes are being delivered to the
// block; like probing, it must not race with SetHosts.
func (b *Block) TrueCounts(t time.Time) (up, ever int) {
	var (
		sec [1]float64
		q   [1]uint64
		c   [1]int32
	)
	b.countSurvey(t, 0, &survey{sec: sec[:], q: q[:], up: c[:]})
	return int(c[0]), b.NumEverActive()
}

// TrueSeries sets dst[r] to TrueA(start + r·period) for every r: a survey
// of len(dst) rounds enumerating every address, answered host by host (see
// hostTable.countSurvey) rather than by len(dst) calls to TrueA, and
// bit-identical to them. period must be positive. Like TrueCounts, it may
// run on any number of goroutines.
func (b *Block) TrueSeries(start time.Time, period time.Duration, dst []float64) {
	if period <= 0 {
		panic("netsim: TrueSeries needs a positive period")
	}
	ever := b.NumEverActive()
	if ever == 0 {
		clear(dst)
		return
	}
	s := surveys.Get().(*survey)
	defer surveys.Put(s)
	s.resize(len(dst))
	b.countSurvey(start, period, s)
	for r, up := range s.up {
		dst[r] = float64(up) / float64(ever)
	}
}

// countSurvey sets s.up[r] to TrueCounts' up at start + r·step, filling the
// rest of s with those instants on the way.
func (b *Block) countSurvey(start time.Time, step time.Duration, s *survey) {
	if b.hosts == nil {
		clear(s.up)
		return
	}
	s.fill(start, step)
	b.hosts.countSurvey(start, step, s)
	if len(b.Outages) == 0 {
		return
	}
	for r := range s.up {
		if b.InOutage(start.Add(time.Duration(r) * step)) {
			s.up[r] = 0
		}
	}
}
