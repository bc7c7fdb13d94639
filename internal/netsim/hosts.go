package netsim

import (
	"sort"
	"sync"
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
	hostIntermittent                 // Intermittent with 0 < P < 1
	hostOther                        // Periodic, and behaviours defined elsewhere
)

// hostTable is the one representation a block keeps of its hosts: octet to
// kind and column index, then the parameters of E(b) sorted by type into
// pointer-free columns, so that a probe reads two bytes and one column
// entry, and ground truth runs a tight typed loop per column — neither
// makes an interface call for the types this package defines.
//
// Everything is immutable once compiled, except: memo, which belongs to
// delivery and relies on one block being probed by one goroutine at a
// time; and days, which belongs to ground truth and is an immutable table
// swapped in whole, so concurrent surveyors on different days cost each
// other rebuilds but never see a mixed table.
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
		if v.P >= 1 {
			return hostAlways
		}
		return hostIntermittent
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
// delivery's entry point (it writes memo); ground truth uses countSurvey.
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

// dayTable returns day d's table, drawing it unless it is the one held.
func (t *hostTable) dayTable(d int64) *dayTable {
	tab := t.days.Load()
	if tab == nil || tab.day != d {
		tab = &dayTable{day: d, today: t.onPeriods(tab, d), yesterday: t.onPeriods(tab, d-1)}
		t.days.Store(tab)
	}
	return tab
}

// survey is ground truth's working set for n equally spaced instants
// start + r·step: each one's simulation seconds and round quantum,
// converted once as instant.set converts them, and the count the kernel
// writes. step >= 0, so sec never decreases, which is what lets the kernel
// binary-search it. The instants themselves stay with the caller: a time
// holds a pointer, and the escape analysis would send a survey holding one
// to the heap.
type survey struct {
	sec []float64
	q   []uint64
	up  []int32
}

// surveys recycles TrueSeries' working sets, 20 bytes an instant, across
// the blocks of a campaign.
var surveys = sync.Pool{New: func() any { return new(survey) }}

// resize makes the survey n instants long.
func (s *survey) resize(n int) {
	if cap(s.up) < n {
		s.sec, s.q, s.up = make([]float64, n), make([]uint64, n), make([]int32, n)
	}
	s.sec, s.q, s.up = s.sec[:n], s.q[:n], s.up[:n]
}

// fill converts every instant of the survey.
func (s *survey) fill(start time.Time, step time.Duration) {
	ns0 := start.UnixNano()
	for r := range s.sec {
		s.sec[r] = nsSinceEpoch(ns0 + int64(r)*int64(step))
		s.q[r] = roundQuantum(s.sec[r])
	}
}

// span returns the instants of [lo, hi) that p contains, as [a, b): those
// at or after p.start and before p.end — contiguous because sec is sorted.
func (s *survey) span(lo, hi int, p onPeriod) (a, b int) {
	a = lo + sort.SearchFloat64s(s.sec[lo:hi], p.start)
	return a, a + sort.SearchFloat64s(s.sec[a:hi], p.end)
}

// countSurvey sets s.up[r] to the number of hosts answering at instant
// start + r·step, whose conversions s holds, outages aside. It is ground
// truth's one body — a single instant is a survey of length one — and runs
// host by host rather than instant by instant, so each kind pays for what
// its answer depends on:
//
//   - always-on hosts are a constant;
//   - a diurnal host answers on at most two ranges of instants a day (today's
//     on-period and the tail of yesterday's), found by binary search and
//     added through a difference array, so it costs O(days·log n);
//     only a campus host (UpProb in (0,1)) then draws per instant;
//   - an intermittent host is one pass over the quanta with its seed's mix
//     hoisted (see Intermittent.key);
//   - any other behaviour is asked per instant.
//
// Every value read is a pure function of (Seed, day) or (Seed, quantum), so
// the count is bit-identical to asking each host's Up at each instant.
func (t *hostTable) countSurvey(start time.Time, step time.Duration, s *survey) {
	up := s.up
	clear(up)
	n := len(up)
	if len(t.diurnal) > 0 {
		for lo := 0; lo < n; {
			d := simDay(s.sec[lo])
			hi := lo + 1 + sort.Search(n-lo-1, func(k int) bool { return simDay(s.sec[lo+1+k]) > d })
			tab := t.dayTable(d)
			if hi-lo == 1 {
				// A day of one instant (TrueCounts, or a period over a
				// day): two interval tests a host beat four searches.
				var c int32
				sec, q := s.sec[lo], s.q[lo]
				for i := range t.diurnal {
					if t.diurnal[i].upAt(sec, q, tab.today[i], tab.yesterday[i]) {
						c++
					}
				}
				addRange(up, lo, hi, c)
			} else {
				for i := range t.diurnal {
					t.diurnal[i].addDay(s, lo, hi, tab.today[i], tab.yesterday[i], up)
				}
			}
			lo = hi
		}
		for r := 1; r < n; r++ {
			up[r] += up[r-1]
		}
	}
	addDraws(up, s.q, t.inter)
	if len(t.other) > 0 {
		for r := range up {
			at := start.Add(time.Duration(r) * step)
			for _, bh := range t.other {
				if bh.Up(at) {
					up[r]++
				}
			}
		}
	}
	// The always-up kind is whatever of E(b) sits in no column.
	always := int32(len(t.ever) - len(t.diurnal) - len(t.inter) - len(t.other))
	for r := range up {
		up[r] += always
	}
}

// addDraws adds to up[r] the draws at quantum q[r] of every host of inter:
// the kernel's hottest loop, in a function of its own so that its state
// stays in registers.
func addDraws(up []int32, q []uint64, inter []Intermittent) {
	up = up[:len(q)]
	for i := range inter {
		h, thr := inter[i].key()
		for r, qr := range q {
			up[r] += drawKeyed(h, thr, qr)
		}
	}
}

// addDay adds to the difference array diff the instants of day group
// [lo, hi) at which b answers, given the day's on-period and yesterday's.
// The two spans are merged when they meet, so no instant counts twice.
func (b *Diurnal) addDay(s *survey, lo, hi int, today, yesterday onPeriod, diff []int32) {
	x0, x1 := s.span(lo, hi, today)
	y0, y1 := s.span(lo, hi, yesterday)
	if x0 < x1 && y0 < y1 && max(x0, y0) <= min(x1, y1) {
		b.addSpan(s, min(x0, y0), max(x1, y1), diff)
		return
	}
	b.addSpan(s, x0, x1, diff)
	b.addSpan(s, y0, y1, diff)
}

// addSpan adds to diff the instants of [lo, hi), inside an on-period, at
// which b answers: all of them, or for a campus host those whose quantum's
// draw admits it.
func (b *Diurnal) addSpan(s *survey, lo, hi int, diff []int32) {
	if b.UpProb <= 0 || b.UpProb >= 1 {
		addRange(diff, lo, hi, 1)
		return
	}
	for r := lo; r < hi; r++ {
		if b.answers(s.q[r]) {
			addRange(diff, r, r+1, 1)
		}
	}
}

// addRange adds c to every element of [lo, hi) of the array diff is the
// difference array of.
func addRange(diff []int32, lo, hi int, c int32) {
	if lo >= hi {
		return
	}
	diff[lo] += c
	if hi < len(diff) {
		diff[hi] -= c
	}
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
