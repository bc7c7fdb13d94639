package netsim

import (
	"sync/atomic"
	"time"
)

// Hosts is what a block's addresses are specified with: host octet to
// behaviour, nil entries never respond. It is constructor input only —
// Block.SetHosts compiles it and keeps no reference to it.
type Hosts [256]Behavior

// hostKind says which column of a hostTable holds an octet's parameters.
type hostKind uint8

const (
	hostNever        hostKind = iota // outside E(b): nil, or anything whose EverActive is false
	hostAlways                       // AlwaysOn, Intermittent with P >= 1: no parameters to hold
	hostDiurnal                      // Diurnal with Duration > 0
	hostIntermittent                 // Intermittent with 0 < P < 1 on the default quantum
	hostOther                        // Periodic, custom quanta, behaviours defined elsewhere
)

// hostTable is the one representation a block keeps of its hosts: octet to
// kind and column index, then the parameters of E(b) sorted by type into
// pointer-free columns, so that a probe reads two bytes and one column
// entry, and ground truth runs a tight typed loop per column — neither
// makes an interface call for the types this package defines.
//
// Everything is immutable once compiled, except: memo, which belongs to
// delivery and, like the rate limiter, relies on one block being probed by
// one goroutine at a time; and days, which belongs to ground truth and is an
// immutable table swapped in whole, so concurrent surveyors on different
// days cost each other rebuilds but never see a mixed table.
type hostTable struct {
	kind    [256]hostKind
	idx     [256]uint8 // index into kind's column
	ever    []byte     // E(b), ascending
	diurnal []Diurnal
	inter   []Intermittent
	other   []Behavior
	memo    []dayMemo // indexed like diurnal
	days    atomic.Pointer[dayTable]
}

func kindOf(bh Behavior) hostKind {
	if bh == nil || !bh.EverActive() {
		return hostNever
	}
	switch v := bh.(type) {
	case AlwaysOn:
		return hostAlways
	case Diurnal:
		return hostDiurnal
	case Intermittent:
		switch {
		case v.P >= 1:
			return hostAlways
		case v.Quantum <= 0:
			return hostIntermittent
		}
	}
	return hostOther
}

// compileHosts sorts hosts into a table, counting first so every column is
// allocated once at its final size.
func compileHosts(hosts *Hosts) *hostTable {
	t := new(hostTable)
	var n [hostOther + 1]int
	for h, bh := range hosts {
		k := kindOf(bh)
		t.kind[h], t.idx[h] = k, uint8(n[k])
		n[k]++
	}
	t.ever = make([]byte, 0, len(hosts)-n[hostNever])
	t.diurnal = make([]Diurnal, 0, n[hostDiurnal])
	t.inter = make([]Intermittent, 0, n[hostIntermittent])
	t.other = make([]Behavior, 0, n[hostOther])
	for h, bh := range hosts {
		switch t.kind[h] {
		case hostNever:
			continue
		case hostDiurnal:
			t.diurnal = append(t.diurnal, bh.(Diurnal))
		case hostIntermittent:
			t.inter = append(t.inter, bh.(Intermittent))
		case hostOther:
			t.other = append(t.other, bh)
		}
		t.ever = append(t.ever, byte(h))
	}
	t.memo = make([]dayMemo, len(t.diurnal))
	for i := range t.memo {
		t.memo[i].day = noDays
	}
	return t
}

// instant is a delivery or survey time as the host table reads it,
// converted once instead of once per host.
type instant struct {
	now time.Time
	ns  int64   // now.UnixNano(): the outage lookup and the PRF timestamp key
	sec float64 // simulation seconds
	q   uint64  // sec's round quantum
	day int64   // sec's simulation day
}

func (in *instant) set(now time.Time) {
	in.now, in.ns = now, now.UnixNano()
	in.sec = nsSinceEpoch(in.ns)
	in.q, in.day = roundQuantum(in.sec), simDay(in.sec)
}

// up reports whether host answers a probe at in, outages aside. It is
// delivery's entry point (it writes memo); ground truth uses countUp.
func (t *hostTable) up(host byte, in *instant) bool {
	i := t.idx[host]
	switch t.kind[host] {
	case hostAlways:
		return true
	case hostDiurnal:
		d, m := &t.diurnal[i], &t.memo[i]
		return d.upAt(in.sec, in.q, m.onPeriod(d, in.day), m.onPeriod(d, in.day-1))
	case hostIntermittent:
		// Drawn afresh: a walk that stops at the first positive never asks
		// the same host twice in a quantum, so a memo would only cost.
		return t.inter[i].draw(in.q)
	case hostOther:
		return t.other[i].Up(in.now)
	}
	return false
}

// dayMemo holds one diurnal host's realized on-periods for the two days a
// probe touches (today and yesterday, whose tail may spill past midnight),
// so a day's two Box-Muller draws happen once per host-day instead of once
// per probe. A day's slot is its parity: consecutive days never evict each
// other mid-round.
type dayMemo struct {
	day    [2]int64
	period [2]onPeriod
}

// noDays marks both slots empty: no even day is 1 and no odd day is 0.
var noDays = [2]int64{1, 0}

// onPeriod is b.onPeriod(d) cached in d's slot.
func (m *dayMemo) onPeriod(b *Diurnal, d int64) onPeriod {
	s := d & 1
	if m.day[s] != d {
		m.day[s], m.period[s] = d, b.onPeriod(d)
	}
	return m.period[s]
}

// dayTable holds every diurnal host's realized on-period for one day and
// the day before, indexed like hostTable.diurnal: ground truth draws the
// per-day noise once per host-day instead of on every query.
type dayTable struct {
	day              int64
	today, yesterday []onPeriod
}

// countUp counts the hosts answering at in, outages aside.
func (t *hostTable) countUp(in *instant) int {
	// The always-up kind is whatever of E(b) sits in no column.
	up := len(t.ever) - len(t.diurnal) - len(t.inter) - len(t.other)
	if len(t.diurnal) > 0 {
		tab := t.days.Load()
		if tab == nil || tab.day != in.day {
			tab = &dayTable{day: in.day, today: t.onPeriods(tab, in.day), yesterday: t.onPeriods(tab, in.day-1)}
			t.days.Store(tab)
		}
		for i := range t.diurnal {
			if t.diurnal[i].upAt(in.sec, in.q, tab.today[i], tab.yesterday[i]) {
				up++
			}
		}
	}
	for i := range t.inter {
		if t.inter[i].draw(in.q) {
			up++
		}
	}
	for _, bh := range t.other {
		if bh.Up(in.now) {
			up++
		}
	}
	return up
}

// onPeriods returns every diurnal host's on-period of day d, taken from
// old when it already holds that day: a survey walking forward in time
// draws each day once and carries today over to yesterday.
func (t *hostTable) onPeriods(old *dayTable, d int64) []onPeriod {
	if old != nil {
		switch d {
		case old.day:
			return old.today
		case old.day - 1:
			return old.yesterday
		}
	}
	out := make([]onPeriod, len(t.diurnal))
	for i := range t.diurnal {
		out[i] = t.diurnal[i].onPeriod(d)
	}
	return out
}
