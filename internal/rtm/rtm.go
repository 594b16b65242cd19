// Package rtm implements the paper's realistic trace-reuse hardware
// (§3, evaluated in §4.6): a finite, set-associative Reuse Trace Memory,
// the instruction-reuse buffer used by the ILR trace-collection
// heuristics, the three dynamic trace-collection heuristics (ILR NE,
// ILR EXP, I(n) EXP) and the coupled simulator that performs the reuse
// test at every fetch, skips reused traces and collects new ones.
package rtm

import (
	"fmt"
	"sort"

	"github.com/tracereuse/tlr/internal/trace"
)

// State is the architectural state the reuse test compares trace inputs
// against; *cpu.CPU implements it.
type State interface {
	ReadLoc(trace.Loc) uint64
}

// Geometry fixes the shape of the RTM exactly as §4.6 describes: traces
// are grouped by starting PC; the PC's low bits select a set; a set holds
// PCWays distinct PCs; each PC holds up to TracesPerPC traces.
type Geometry struct {
	Sets        int // power of two
	PCWays      int
	TracesPerPC int
}

// Entries is the total trace capacity.
func (g Geometry) Entries() int { return g.Sets * g.PCWays * g.TracesPerPC }

// String renders like "4K entries (128x4x8)".
func (g Geometry) String() string {
	n := g.Entries()
	switch {
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dK entries (%dx%dx%d)", n/1024, g.Sets, g.PCWays, g.TracesPerPC)
	default:
		return fmt.Sprintf("%d entries (%dx%dx%d)", n, g.Sets, g.PCWays, g.TracesPerPC)
	}
}

// The paper's four RTM configurations (§4.6).
var (
	Geometry512  = Geometry{Sets: 32, PCWays: 4, TracesPerPC: 4}
	Geometry4K   = Geometry{Sets: 128, PCWays: 4, TracesPerPC: 8}
	Geometry32K  = Geometry{Sets: 256, PCWays: 8, TracesPerPC: 16}
	Geometry256K = Geometry{Sets: 2048, PCWays: 8, TracesPerPC: 16}
)

// entryCaps is the paper's RTM entry format: up to 8 register and 4
// memory values on each side.
var entryCaps = trace.Caps{InReg: 8, InMem: 4, OutReg: 8, OutMem: 4}

// Entry is one stored trace.
//
// The RTM recycles entries: one that is evicted or invalidated is reused
// for a later trace, and a refresh by a longer variant rewrites Sum in
// place.  An *Entry returned by Lookup stays intact until the next
// Lookup, and its Sum must not be modified.
type Entry struct {
	Sum     trace.Summary
	buf     []trace.Ref // backing array of Sum.Ins and Sum.Outs
	lastUse uint64
	hits    uint64
}

// Hits returns how many times this entry was reused.
func (e *Entry) Hits() uint64 { return e.hits }

// pcSlot holds the traces of one starting PC.
type pcSlot struct {
	pc      uint64
	traces  []*Entry
	lastUse uint64
}

// Stats counts RTM traffic.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Inserts       uint64
	Refreshes     uint64 // insert found an identical entry already stored
	TraceEvicts   uint64
	PCEvicts      uint64
	RejectedShort uint64 // traces below MinLen
	Invalidations uint64 // valid-bit mode: entries killed by a write
	Stillborn     uint64 // valid-bit mode: traces whose outputs overlap their inputs
}

// RTM is the finite reuse trace memory.
type RTM struct {
	geom   Geometry
	minLen int
	sets   [][]*pcSlot
	tick   uint64
	stats  Stats
	inval  *invalIndex // non-nil: the §3.3 valid-bit reuse test is active

	// Entry recycling.  An evicted or invalidated entry goes straight
	// back to free, except held, the entry the last Lookup returned: the
	// Inserts that follow a hit may evict it, and it must stay intact
	// until the caller's next Lookup, which recycles it then
	// (heldRetired).  So at most one retired entry waits, whatever the
	// mix of calls.  New entries come from free before any is allocated.
	free        []*Entry
	held        *Entry
	heldRetired bool
}

// New builds an empty RTM with the given geometry.  minLen is the minimum
// trace length worth storing (1 keeps everything; the paper's I(1) traces
// are single instructions).
func New(geom Geometry, minLen int) *RTM {
	if geom.Sets&(geom.Sets-1) != 0 || geom.Sets <= 0 {
		panic(fmt.Sprintf("rtm: Sets must be a power of two, got %d", geom.Sets))
	}
	if minLen < 1 {
		minLen = 1
	}
	return &RTM{
		geom:   geom,
		minLen: minLen,
		sets:   make([][]*pcSlot, geom.Sets),
	}
}

// Geometry returns the RTM's shape.
func (m *RTM) Geometry() Geometry { return m.geom }

// Stats returns a copy of the traffic counters.
func (m *RTM) Stats() Stats { return m.stats }

// Stored returns the number of traces currently held.
func (m *RTM) Stored() int {
	n := 0
	for _, set := range m.sets {
		for _, slot := range set {
			n += len(slot.traces)
		}
	}
	return n
}

func (m *RTM) setOf(pc uint64) int { return int(pc & uint64(m.geom.Sets-1)) }

func (m *RTM) slotOf(pc uint64) *pcSlot {
	for _, slot := range m.sets[m.setOf(pc)] {
		if slot.pc == pc {
			return slot
		}
	}
	return nil
}

// Lookup performs the reuse test at a fetch of pc: it searches the traces
// stored for pc and returns the longest one whose every input location
// currently holds the recorded value, refreshing LRU state.  Preferring
// the longest match is the paper's §4.4 objective — one reuse operation
// should skip as many instructions as possible — and is what makes
// dynamic trace expansion effective.  Nil means no reusable trace.  In
// valid-bit mode (see EnableInvalidation) every stored trace is valid,
// so the test compares no values.
//
// Every trace stored for pc starts with the same instruction, so nearly
// all of them share their first live-in, and most candidates that fail
// fail there.  The test reads that live-in once per Lookup, through a
// one-entry (location, value) cache, and compares the remaining live-ins
// only of candidates that pass it.
//
// The returned entry stays intact until the next Lookup, even if the
// Inserts in between evict it (see Entry).
func (m *RTM) Lookup(pc uint64, st State) *Entry {
	m.stats.Lookups++
	if m.heldRetired {
		m.free = append(m.free, m.held)
		m.heldRetired = false
	}
	slot := m.slotOf(pc)
	if slot == nil {
		m.held = nil
		return nil
	}
	var best *Entry
	var firstLoc trace.Loc // the cached first live-in and its value
	var firstVal uint64
	cached := false
candidates:
	for _, e := range slot.traces {
		if best != nil && e.Sum.Len <= best.Sum.Len {
			continue
		}
		if ins := e.Sum.Ins; m.inval == nil && len(ins) > 0 {
			if !cached || ins[0].Loc != firstLoc {
				firstLoc, firstVal, cached = ins[0].Loc, st.ReadLoc(ins[0].Loc), true
			}
			if firstVal != ins[0].Val {
				continue
			}
			for _, r := range ins[1:] {
				if st.ReadLoc(r.Loc) != r.Val {
					continue candidates
				}
			}
		}
		best = e
	}
	m.held = best
	if best == nil {
		return nil
	}
	m.tick++
	best.lastUse = m.tick
	slot.lastUse = m.tick
	best.hits++
	m.stats.Hits++
	return best
}

// Insert stores a collected trace, evicting by LRU at both levels: the
// least-recently-used trace of the same PC, or the least-recently-used PC
// of the set when a new PC needs a slot.  A trace identical in inputs to a
// stored one only refreshes it (its outputs are necessarily equal).
//
// The caller keeps ownership of sum's slices: Insert copies them into
// the stored entry's own buffer, so a collector can pass its
// Summarizer's Current summary and reuse the Summarizer straight after.
func (m *RTM) Insert(sum trace.Summary) {
	if sum.Len < m.minLen {
		m.stats.RejectedShort++
		return
	}
	if m.inval != nil && outputsOverlapInputs(&sum) {
		// Valid-bit mode: the trace's own writes already clobbered one
		// of its input locations, so its valid bit would be clear the
		// moment it was stored.
		m.stats.Stillborn++
		return
	}
	m.tick++
	set := m.setOf(sum.StartPC)
	slot := m.slotOf(sum.StartPC)
	if slot == nil {
		if len(m.sets[set]) >= m.geom.PCWays {
			// Nothing outside the RTM holds a slot (the valid-bit index
			// has dropped the victim's entries): recycle it.
			slot = m.evictLRUPC(set)
			clear(slot.traces)
			slot.pc, slot.traces = sum.StartPC, slot.traces[:0]
		} else {
			slot = &pcSlot{pc: sum.StartPC}
		}
		m.sets[set] = append(m.sets[set], slot)
	}
	slot.lastUse = m.tick

	// Dedupe against stored traces of this PC by live-in sequence.
	for _, e := range slot.traces {
		if len(e.Sum.Ins) == len(sum.Ins) && sameIns(e.Sum.Ins, sum.Ins) {
			// Prefer the longer variant: expansion replaces the
			// original (the paper grows traces on reuse).
			if sum.Len > e.Sum.Len {
				e.store(&sum)
			}
			e.lastUse = m.tick
			m.stats.Refreshes++
			return
		}
	}

	if len(slot.traces) >= m.geom.TracesPerPC {
		m.evictLRUTrace(slot)
	}
	e := m.newEntry()
	e.lastUse, e.hits = m.tick, 0
	e.store(&sum)
	slot.traces = append(slot.traces, e)
	if m.inval != nil {
		m.inval.register(e, slot)
	}
	m.stats.Inserts++
}

// newEntry returns an entry to store a trace in: a recycled one, else
// a new one.
func (m *RTM) newEntry() *Entry {
	if n := len(m.free); n > 0 {
		e := m.free[n-1]
		m.free = m.free[:n-1]
		return e
	}
	return new(Entry)
}

// store copies sum into e, reusing e's buffer when it is big enough.
func (e *Entry) store(sum *trace.Summary) {
	nIn, n := len(sum.Ins), len(sum.Ins)+len(sum.Outs)
	e.buf = append(append(e.buf[:0], sum.Ins...), sum.Outs...)
	e.Sum = *sum
	e.Sum.Ins, e.Sum.Outs = nil, nil
	if nIn > 0 {
		e.Sum.Ins = e.buf[:nIn:nIn]
	}
	if n > nIn {
		e.Sum.Outs = e.buf[nIn:n:n]
	}
}

// retire recycles an entry that has left the RTM; the one the last
// Lookup returned waits for the next Lookup.
func (m *RTM) retire(e *Entry) {
	if e == m.held {
		m.heldRetired = true
		return
	}
	m.free = append(m.free, e)
}

// outputsOverlapInputs reports whether the trace writes any of its own
// live-in locations.
func outputsOverlapInputs(s *trace.Summary) bool {
	for _, out := range s.Outs {
		for _, in := range s.Ins {
			if out.Loc == in.Loc {
				return true
			}
		}
	}
	return false
}

func sameIns(a, b []trace.Ref) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *RTM) evictLRUTrace(slot *pcSlot) {
	victim, vi := uint64(1)<<63, -1
	for i, e := range slot.traces {
		if e.lastUse < victim {
			victim, vi = e.lastUse, i
		}
	}
	if m.inval != nil {
		m.inval.unregister(slot.traces[vi])
	}
	m.retire(slot.traces[vi])
	slot.traces = append(slot.traces[:vi], slot.traces[vi+1:]...)
	m.stats.TraceEvicts++
}

// evictLRUPC removes the least-recently-used PC slot of set, with its
// traces, retires the traces and returns the slot.
func (m *RTM) evictLRUPC(set int) *pcSlot {
	victim, vi := uint64(1)<<63, -1
	for i, s := range m.sets[set] {
		if s.lastUse < victim {
			victim, vi = s.lastUse, i
		}
	}
	if m.inval != nil {
		for _, e := range m.sets[set][vi].traces {
			m.inval.unregister(e)
		}
	}
	slot := m.sets[set][vi]
	for _, e := range slot.traces {
		m.retire(e)
	}
	m.stats.TraceEvicts += uint64(len(slot.traces))
	m.sets[set] = append(m.sets[set][:vi], m.sets[set][vi+1:]...)
	m.stats.PCEvicts++
	return slot
}

// TraceProfile describes one stored trace for profiling reports.
type TraceProfile struct {
	StartPC uint64
	Len     int
	Hits    uint64
	Ins     int
	Outs    int
}

// TopTraces returns the k currently stored traces with the most reuses,
// in descending hit order — the profiler's view of where reuse lives.
func (m *RTM) TopTraces(k int) []TraceProfile { return m.topTraces(k, m.geom.Sets) }

// topTraces is TopTraces as an RTM of sets sets, a multiple of m's,
// would list them after the same run (see ResultAs).  The ranking sorts
// by hits and then start PC, but sort.Slice is not stable, so the order
// of equal-ranked traces depends on the order they are gathered in: set
// by set, slot by slot.  A finer RTM's set f holds exactly the slots of
// m's set f mod m.Sets whose PC falls in f, in the same insertion
// order; so a stable regrouping of m's traces by f gathers them as that
// RTM would.
func (m *RTM) topTraces(k, sets int) []TraceProfile {
	var all []TraceProfile
	for _, set := range m.sets {
		for _, slot := range set {
			for _, e := range slot.traces {
				if e.hits == 0 {
					continue
				}
				all = append(all, TraceProfile{
					StartPC: e.Sum.StartPC,
					Len:     e.Sum.Len,
					Hits:    e.hits,
					Ins:     len(e.Sum.Ins),
					Outs:    len(e.Sum.Outs),
				})
			}
		}
	}
	if sets != m.geom.Sets {
		mask := uint64(sets - 1)
		sort.SliceStable(all, func(i, j int) bool { return all[i].StartPC&mask < all[j].StartPC&mask })
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		return all[i].StartPC < all[j].StartPC
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
