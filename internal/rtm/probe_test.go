package rtm

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// refLookup is the reference reuse test: scan every trace stored for the
// PC, compare all of its live-ins, keep the first longest match.
func refLookup(m *RTM, pc uint64, st State) *Entry {
	slot := m.slotOf(pc)
	if slot == nil {
		return nil
	}
	var best *Entry
	for _, e := range slot.traces {
		match := true
		for _, r := range e.Sum.Ins {
			if st.ReadLoc(r.Loc) != r.Val {
				match = false
				break
			}
		}
		if match && (best == nil || e.Sum.Len > best.Sum.Len) {
			best = e
		}
	}
	return best
}

// probeSummary draws a trace for pc.  Most traces of a PC start with the
// same live-in location, as traces starting with the same instruction do;
// some start elsewhere and some have no live-ins at all.
func probeSummary(rng *rand.Rand, pc uint64) trace.Summary {
	var ins []trace.Ref
	switch rng.Intn(8) {
	case 0: // no live-ins
	case 1:
		ins = append(ins, trace.Ref{Loc: trace.Mem(pc), Val: uint64(rng.Intn(3))})
	default:
		ins = append(ins, trace.Ref{Loc: trace.IntReg(1), Val: uint64(rng.Intn(3))})
	}
	for k := rng.Intn(4); k > 0; k-- {
		l := trace.IntReg(uint8(2 + rng.Intn(6)))
		if !slices.ContainsFunc(ins, func(r trace.Ref) bool { return r.Loc == l }) {
			ins = append(ins, trace.Ref{Loc: l, Val: uint64(rng.Intn(2))})
		}
	}
	n := 1 + rng.Intn(6)
	return sum(pc, n, ins, []trace.Ref{{Loc: trace.IntReg(9), Val: uint64(n)}})
}

// TestLookupMatchesReferenceScan interleaves random inserts, state
// changes and lookups, and checks every Lookup returns the very entry
// the reference longest-match scan picks.
func TestLookupMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := New(Geometry{Sets: 2, PCWays: 2, TracesPerPC: 8}, 1)
	st := fakeState{}
	hits := 0
	for op := 0; op < 60000; op++ {
		pc := uint64(rng.Intn(6))
		switch rng.Intn(4) {
		case 0:
			m.Insert(probeSummary(rng, pc))
		case 1:
			l := trace.IntReg(uint8(1 + rng.Intn(7)))
			if rng.Intn(4) == 0 {
				l = trace.Mem(pc)
			}
			st[l] = uint64(rng.Intn(3))
		default:
			want := refLookup(m, pc, st)
			if got := m.Lookup(pc, st); got != want {
				t.Fatalf("op %d: Lookup(%d) = %v, reference %v", op, pc, got, want)
			}
			if want != nil {
				hits++
			}
		}
	}
	if hits < 1000 {
		t.Fatalf("only %d hits: the stream does not exercise the reuse test", hits)
	}
}

// refIRB is the reference instruction-reuse buffer: per set, a list of
// PCs, each with a list of recorded input arrays, both evicted by LRU.
type refIRB struct {
	geom Geometry
	tick uint64
	sets [][]*refIRBSlot
}

type refIRBSlot struct {
	pc   uint64
	last uint64
	vecs [][]trace.Ref
	uses []uint64
}

func (b *refIRB) testAndRecord(e *trace.Exec) bool {
	if e.SideEffect {
		return false
	}
	b.tick++
	set := int(e.PC) & (b.geom.Sets - 1)
	i := slices.IndexFunc(b.sets[set], func(s *refIRBSlot) bool { return s.pc == e.PC })
	if i < 0 {
		if len(b.sets[set]) >= b.geom.PCWays {
			lru := 0
			for j, s := range b.sets[set] {
				if s.last < b.sets[set][lru].last {
					lru = j
				}
			}
			b.sets[set] = slices.Delete(b.sets[set], lru, lru+1)
		}
		b.sets[set] = append(b.sets[set], &refIRBSlot{pc: e.PC})
		i = len(b.sets[set]) - 1
	}
	s := b.sets[set][i]
	s.last = b.tick
	for j, v := range s.vecs {
		if slices.Equal(v, e.Inputs()) {
			s.uses[j] = b.tick
			return true
		}
	}
	if len(s.vecs) >= b.geom.TracesPerPC {
		lru := 0
		for j := range s.uses {
			if s.uses[j] < s.uses[lru] {
				lru = j
			}
		}
		s.vecs = slices.Delete(s.vecs, lru, lru+1)
		s.uses = slices.Delete(s.uses, lru, lru+1)
	}
	s.vecs = append(s.vecs, slices.Clone(e.Inputs()))
	s.uses = append(s.uses, b.tick)
	return false
}

// TestIRBMatchesReferenceLRU feeds the IRB and the reference the same
// random records — PCs colliding in few sets, input vectors from a small
// pool, side effects — and requires identical hit sequences.
func TestIRBMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range []Geometry{
		{Sets: 1, PCWays: 1, TracesPerPC: 1},
		{Sets: 2, PCWays: 2, TracesPerPC: 3},
		{Sets: 4, PCWays: 3, TracesPerPC: 8},
	} {
		b := NewIRB(g)
		ref := &refIRB{geom: g, sets: make([][]*refIRBSlot, g.Sets)}
		hits := 0
		for i := 0; i < 50000; i++ {
			var e trace.Exec
			e.PC = uint64(rng.Intn(3 * g.Sets * g.PCWays))
			e.SideEffect = rng.Intn(50) == 0
			for k := rng.Intn(4); k > 0; k-- {
				e.AddIn(trace.IntReg(uint8(rng.Intn(3))), uint64(rng.Intn(3)))
			}
			got, want := b.TestAndRecord(&e), ref.testAndRecord(&e)
			if got != want {
				t.Fatalf("%+v, record %d (%v): TestAndRecord %v, reference %v", g, i, &e, got, want)
			}
			if got {
				hits++
			}
		}
		if hits < 1000 {
			t.Fatalf("%+v: only %d hits", g, hits)
		}
	}
}
