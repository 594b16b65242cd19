package trace

import (
	"iter"

	"github.com/tracereuse/tlr/internal/isa"
)

// LocMap maps locations to values of type V.  It is the one location
// table of every engine's per-record path: integer and FP registers, the
// bulk of every stream's references, index flat arrays; every other
// location — memory words, register indexes past the register file and
// locations of an unknown kind — lives in one open-addressed, linearly
// probed table keyed by the full Loc.
//
// A location that was never set (since the last Reset) reads as the zero
// value.  Every slot carries a generation stamp, so Reset is O(1): it
// starts a new generation, and slots stamped with an older one read as
// empty.  Nothing is ever deleted, which keeps linear probing free of
// tombstones.  The zero LocMap is empty and ready to use.
type LocMap[V any] struct {
	reg   [RegLocs]locEntry[V] // int then FP registers
	tab   []locEntry[V]        // power-of-two length, or nil
	shift uint8                // 64 - log2(len(tab))
	used  int                  // live slots in tab
	n     int                  // live locations
	gen   uint32               // live slots are stamped gen+1
}

type locEntry[V any] struct {
	loc   Loc
	stamp uint32 // gen+1 of the generation that set it; 0 = never set
	val   V
}

// locMapMinTable is the table size a LocMap starts with on its first
// non-register location.
const locMapMinTable = 64

// RegLocs is the number of register locations: integer, then FP.
const RegLocs = 2 * isa.NumRegs

// RegIndex returns l's index among the RegLocs register locations, or -1
// when l is not a register of the register file (a LocMap keeps it in
// its table).
func RegIndex(l Loc) int {
	if u := uint64(l); u < isa.NumRegs {
		return int(u)
	}
	if u := uint64(l) - uint64(KindFPReg)<<kindShift; u < isa.NumRegs {
		return isa.NumRegs + int(u)
	}
	return -1
}

// slot returns the table index where probing for l starts (Fibonacci
// hashing: the top bits of the product spread sequential word addresses).
func (m *LocMap[V]) slot(l Loc) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Get returns l's value, or the zero value when l is absent.
func (m *LocMap[V]) Get(l Loc) V {
	stamp := m.gen + 1
	if i := RegIndex(l); i >= 0 {
		if e := &m.reg[i]; e.stamp == stamp {
			return e.val
		}
		var zero V
		return zero
	}
	if m.tab != nil {
		mask := len(m.tab) - 1
		for i := m.slot(l); ; i = (i + 1) & mask {
			e := &m.tab[i]
			if e.stamp != stamp {
				break
			}
			if e.loc == l {
				return e.val
			}
		}
	}
	var zero V
	return zero
}

// Set stores v at l.
func (m *LocMap[V]) Set(l Loc, v V) { *m.At(l) = v }

// At returns a pointer to l's value, adding l with the zero value when it
// is absent.  The pointer is valid until the next At, Set or Reset.
func (m *LocMap[V]) At(l Loc) *V {
	stamp := m.gen + 1
	if i := RegIndex(l); i >= 0 {
		e := &m.reg[i]
		if e.stamp != stamp {
			m.claim(e, l, stamp)
		}
		return &e.val
	}
	if 2*(m.used+1) > len(m.tab) {
		m.grow()
	}
	mask := len(m.tab) - 1
	for i := m.slot(l); ; i = (i + 1) & mask {
		e := &m.tab[i]
		if e.stamp != stamp {
			m.claim(e, l, stamp)
			m.used++
			return &e.val
		}
		if e.loc == l {
			return &e.val
		}
	}
}

func (m *LocMap[V]) claim(e *locEntry[V], l Loc, stamp uint32) {
	var zero V
	e.loc, e.stamp, e.val = l, stamp, zero
	m.n++
}

// grow doubles the table (or makes the first one) and re-inserts the
// live slots, keeping the load factor at most one half.
func (m *LocMap[V]) grow() {
	old := m.tab
	n := max(2*len(old), locMapMinTable)
	m.tab = make([]locEntry[V], n)
	m.shift = 64
	for s := n; s > 1; s >>= 1 {
		m.shift--
	}
	stamp := m.gen + 1
	mask := n - 1
	for _, e := range old {
		if e.stamp != stamp {
			continue
		}
		i := m.slot(e.loc)
		for m.tab[i].stamp == stamp {
			i = (i + 1) & mask
		}
		m.tab[i] = e
	}
}

// Reset empties the map in O(1), keeping its storage.
func (m *LocMap[V]) Reset() {
	m.n, m.used = 0, 0
	m.gen++
	if m.gen+1 == 0 {
		// The next stamp would be 0, the never-set mark: clear every
		// stamp so no slot of an earlier generation can read as live.
		for i := range m.reg {
			m.reg[i].stamp = 0
		}
		for i := range m.tab {
			m.tab[i].stamp = 0
		}
		m.gen = 0
	}
}

// Len returns the number of locations set since the last Reset.
func (m *LocMap[V]) Len() int { return m.n }

// All yields every location set since the last Reset with a pointer to
// its value: registers first, then the table in slot order.  The map must
// not gain locations during the iteration.
func (m *LocMap[V]) All() iter.Seq2[Loc, *V] {
	return func(yield func(Loc, *V) bool) {
		stamp := m.gen + 1
		for _, tab := range [][]locEntry[V]{m.reg[:], m.tab} {
			for i := range tab {
				if e := &tab[i]; e.stamp == stamp && !yield(e.loc, &e.val) {
					return
				}
			}
		}
	}
}
