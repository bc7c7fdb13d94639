package netsim

import (
	"math"
	"time"

	"sleepnet/internal/prf"
	"sleepnet/internal/timeseries"
)

// Behavior models how one address responds over time. Implementations must
// be deterministic: two calls with the same time quantum return the same
// answer.
type Behavior interface {
	// Up reports whether the address answers a probe arriving at t.
	Up(t time.Time) bool
	// EverActive reports whether the address responds at least sometimes;
	// never-active addresses are outside E(b) and outside ground-truth A. A
	// block stores nothing for them and never asks them Up.
	EverActive() bool
}

// simEpoch anchors day and round arithmetic. Any fixed instant works; this
// one matches the A12w collection start date for cosmetic familiarity.
var simEpoch = time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)

// simEpochNS is simEpoch on the Unix nanosecond clock the PRF timestamp
// keys already use.
var simEpochNS = simEpoch.UnixNano()

// secondsSinceEpoch converts t to simulation seconds: t.Sub(simEpoch) in
// seconds, taken on the Unix nanosecond clock, which gives the same
// nanosecond count wherever Sub does not saturate (292 years either side of
// the epoch) without Sub's monotonic-reading and overflow handling.
func secondsSinceEpoch(t time.Time) float64 { return nsSinceEpoch(t.UnixNano()) }

// nsSinceEpoch is secondsSinceEpoch of the instant at Unix nanosecond ns.
func nsSinceEpoch(ns int64) float64 { return time.Duration(ns - simEpochNS).Seconds() }

// AlwaysOn is an address that answers every probe.
type AlwaysOn struct{}

func (AlwaysOn) Up(time.Time) bool { return true }
func (AlwaysOn) EverActive() bool  { return true }

// Intermittent answers each 11-minute round independently with
// probability P — the "dense but low availability" population of Figure 2.
// Probes within the same round get the same answer.
type Intermittent struct {
	P    float64
	Seed uint64
}

// roundSeconds is the consistency window: the 11-minute round.
const roundSeconds = float64(timeseries.DefaultRound / time.Second)

// roundQuantum returns the index of the round sec falls in.
func roundQuantum(sec float64) uint64 { return uint64(sec / roundSeconds) }

func (b Intermittent) Up(t time.Time) bool {
	if b.P <= 0 {
		return false
	}
	if b.P >= 1 {
		return true
	}
	return b.draw(roundQuantum(secondsSinceEpoch(t)))
}

// draw is round quantum q's availability draw, which decides Up when
// 0 < P < 1. The host table sorts the other hosts out once and then calls
// it directly, with the block-round's q. Ground truth asks the same
// question in integer form (key, drawKeyed), hoisted out of its loop over
// q; the truth tests hold the two together.
func (b Intermittent) draw(q uint64) bool { return prf.Float2(b.Seed, q, 0x1a7e) < b.P }

// key returns what fixes the host's draws besides the quantum: its seed's
// mix, and the threshold ⌈P·2⁵³⌉ (for 0 < P < 1). prf.Float2 is x/2⁵³ for
// an integer x < 2⁵³, and x/2⁵³ < P holds exactly when x < ⌈P·2⁵³⌉: the
// comparison becomes an integer one, with no rounding anywhere.
func (b Intermittent) key() (h, thr uint64) {
	y := b.P * (1 << 53)
	thr = uint64(y)
	if float64(thr) < y {
		thr++
	}
	return prf.Mix(b.Seed), thr
}

// drawKeyed is draw of quantum q for the host keyed (h, thr): 1 if it
// answers, else 0. It is branchless — x < thr read off the borrow of x−thr,
// both below 2⁶³ — because the outcome is a coin flip a branch would
// mispredict half the time.
func drawKeyed(h, thr, q uint64) int32 {
	x := prf.Mix(prf.Mix(h^q)^0x1a7e) >> 11
	return int32((x - thr) >> 63)
}

func (b Intermittent) EverActive() bool { return b.P > 0 }

// Diurnal answers during one contiguous on-period per day and is silent
// otherwise — the §3.2.2 controlled model. The on-period of day d starts at
// Phase + N(0, StartSigma) after local midnight (all times UTC in the
// simulator; the world layer shifts Phase by longitude) and lasts
// Duration + N(0, DurationSigma), with per-day noise drawn independently
// per address. Periods may spill across midnight.
type Diurnal struct {
	Phase         time.Duration // daily on-period start offset from midnight
	Duration      time.Duration // mean on-period length
	StartSigma    time.Duration // per-day start-time noise (σs)
	DurationSigma time.Duration // per-day duration noise (σd)
	UpProb        float64       // answer probability while on; 0 means 1.0
	Seed          uint64
}

func (b Diurnal) EverActive() bool { return b.Duration > 0 }

func (b Diurnal) Up(t time.Time) bool {
	if b.Duration <= 0 {
		return false
	}
	sec := secondsSinceEpoch(t)
	day := simDay(sec)
	return b.upAt(sec, roundQuantum(sec), b.onPeriod(day), b.onPeriod(day-1))
}

// simDay returns the day index of simulation second sec.
func simDay(sec float64) int64 {
	day := int64(sec) / 86400
	if sec < 0 {
		day--
	}
	return day
}

// onPeriod is one day's realized on-period [start, end) in simulation
// seconds.
type onPeriod struct {
	start, end float64
}

func (p onPeriod) contains(sec float64) bool { return sec >= p.start && sec < p.end }

// upAt is the one definition of "this diurnal host (Duration > 0) answers
// at sec": sec falls in today's on-period or in the tail of yesterday's
// that spilled past midnight, and the host's answer draw for sec's round
// quantum q admits it. Up and the block's host table both run this body;
// they differ only in where the two on-periods come from (drawn afresh,
// delivery's per-host day memo, ground truth's per-day table), so they
// cannot drift apart.
func (b *Diurnal) upAt(sec float64, q uint64, today, yesterday onPeriod) bool {
	return (today.contains(sec) || yesterday.contains(sec)) && b.answers(q)
}

// answers draws whether a host inside its on-period replies in round
// quantum q: always, unless UpProb is in (0,1), when each quantum answers
// independently with that probability.
func (b *Diurnal) answers(q uint64) bool {
	if b.UpProb <= 0 || b.UpProb >= 1 {
		return true
	}
	return prf.Float2(b.Seed, q, 0xd1a2) < b.UpProb
}

// onPeriod returns day d's realized on-period after the per-day noise
// draws — a pure function of (Seed, d), which is what makes the host
// table's day memo and day table exact rather than approximate.
func (b *Diurnal) onPeriod(d int64) onPeriod {
	start := float64(d)*86400 + b.Phase.Seconds()
	if b.StartSigma > 0 {
		start += prf.Norm(b.Seed, uint64(d), 0x57a7) * b.StartSigma.Seconds()
	}
	dur := b.Duration.Seconds()
	if b.DurationSigma > 0 {
		dur += prf.Norm(b.Seed, uint64(d), 0xd0b1) * b.DurationSigma.Seconds()
		if dur < 0 {
			dur = 0
		}
	}
	return onPeriod{start, start + dur}
}

// Periodic answers during a fraction of every period P — used to model
// non-24h periodicities such as DHCP lease cycles (§4 "Daily or other
// periodicity?").
type Periodic struct {
	Period time.Duration // full cycle length
	Duty   float64       // fraction of the cycle spent up, in (0,1]
	Offset time.Duration // phase offset of the cycle start
}

func (b Periodic) EverActive() bool { return b.Period > 0 && b.Duty > 0 }

func (b Periodic) Up(t time.Time) bool {
	if b.Period <= 0 || b.Duty <= 0 {
		return false
	}
	if b.Duty >= 1 {
		return true
	}
	p := b.Period.Seconds()
	sec := secondsSinceEpoch(t) - b.Offset.Seconds()
	phase := sec - math.Floor(sec/p)*p
	return phase < b.Duty*p
}
