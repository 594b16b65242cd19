package rtm

import (
	"github.com/tracereuse/tlr/internal/trace"
)

// The paper's §3.3 describes two reuse tests.  The default Lookup
// implements the first: read every input location and compare against the
// stored values.  This file implements the second — the valid-bit scheme:
//
//	"Another possibility is to add to each RTM entry a valid bit.  When
//	 a trace is stored its valid bit is set.  For every register/memory
//	 write, all the RTM entries with a matching register/memory location
//	 in its input list are invalidated.  The latter approach requires a
//	 much simpler reuse test (just checking the valid bit)."
//
// The trade-off is conservatism: a write of the *same value* still kills
// the entry, and register writes are so frequent that entries with
// register live-ins rarely survive.  The invalidation ablation quantifies
// that cost (see expt.InvalidationTable).
//
// Invalidated entries are removed immediately rather than left as dead
// tombstones; the paper does not specify, and removal keeps the LRU state
// meaningful (a dead entry should not shield live ones from eviction).

// invalIndex is the reverse map from input locations to the entries that
// would be invalidated by a write to them.
type invalIndex struct {
	byLoc map[trace.Loc]map[*Entry]*pcSlot
}

func newInvalIndex() *invalIndex {
	return &invalIndex{byLoc: make(map[trace.Loc]map[*Entry]*pcSlot, 1024)}
}

// register adds e's live-in locations to the index.
func (ix *invalIndex) register(e *Entry, slot *pcSlot) {
	for _, r := range e.Sum.Ins {
		m := ix.byLoc[r.Loc]
		if m == nil {
			m = make(map[*Entry]*pcSlot, 2)
			ix.byLoc[r.Loc] = m
		}
		m[e] = slot
	}
}

// unregister removes e from the index (on eviction or invalidation).
func (ix *invalIndex) unregister(e *Entry) {
	for _, r := range e.Sum.Ins {
		if m := ix.byLoc[r.Loc]; m != nil {
			delete(m, e)
			if len(m) == 0 {
				delete(ix.byLoc, r.Loc)
			}
		}
	}
}

// entriesReading returns the entries whose input lists contain loc.
func (ix *invalIndex) entriesReading(loc trace.Loc) map[*Entry]*pcSlot {
	return ix.byLoc[loc]
}

// EnableInvalidation switches the RTM to the valid-bit reuse test.  Must
// be called before any Insert.
func (m *RTM) EnableInvalidation() {
	if m.inval != nil {
		return
	}
	m.inval = newInvalIndex()
}

// Invalidating reports whether the valid-bit scheme is active.
func (m *RTM) Invalidating() bool { return m.inval != nil }

// NotifyWrite invalidates every stored trace that has loc in its input
// list.  The coupled simulator calls it for every architectural write —
// by executed instructions and by applied (reused) trace outputs alike.
func (m *RTM) NotifyWrite(loc trace.Loc) {
	if m.inval == nil {
		return
	}
	victims := m.inval.entriesReading(loc)
	if len(victims) == 0 {
		return
	}
	for e, slot := range victims {
		m.removeEntry(slot, e)
		m.stats.Invalidations++
	}
}

// removeEntry deletes e from its slot and the reverse index.
func (m *RTM) removeEntry(slot *pcSlot, e *Entry) {
	for i, se := range slot.traces {
		if se == e {
			slot.traces = append(slot.traces[:i], slot.traces[i+1:]...)
			m.retire(e)
			break
		}
	}
	m.inval.unregister(e)
}
