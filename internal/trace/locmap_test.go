package trace

import (
	"math"
	"math/rand"
	"testing"
)

// locMapLoc draws from every storage class a LocMap must keep apart:
// int and FP registers, register indexes past the register file, the
// unused fourth kind, and memory words from a pool large enough to make
// the table grow several times.
func locMapLoc(rng *rand.Rand) Loc {
	switch rng.Intn(8) {
	case 0:
		return IntReg(uint8(rng.Intn(40)))
	case 1:
		return FPReg(uint8(rng.Intn(40)))
	case 2:
		return Loc(3<<62 | uint64(rng.Intn(40)))
	case 3:
		return IntReg(uint8(rng.Intn(256)))
	default:
		return Mem(uint64(rng.Intn(3000)) * 8)
	}
}

// checkLocMap compares every observable of m with the map model.
func checkLocMap(t *testing.T, op int, m *LocMap[uint64], model map[Loc]uint64) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("op %d: Len %d, model %d", op, m.Len(), len(model))
	}
	seen := 0
	for l, v := range m.All() {
		if want, ok := model[l]; !ok || *v != want {
			t.Fatalf("op %d: All yields %v=%d, model %d (present %v)", op, l, *v, want, ok)
		}
		seen++
	}
	if seen != len(model) {
		t.Fatalf("op %d: All yields %d locations, model %d", op, seen, len(model))
	}
}

// TestLocMapMatchesMap drives a LocMap and a map[Loc]uint64 model through
// random Set, At, Get and Reset operations across table growth and a
// forced generation wrap: an absent location must read as zero, no two
// locations may alias, and nothing of an earlier generation may survive
// a Reset.
func TestLocMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m LocMap[uint64]
	model := map[Loc]uint64{}
	for op := 0; op < 200000; op++ {
		l := locMapLoc(rng)
		switch r := rng.Intn(1000); {
		case r < 2:
			m.Reset()
			clear(model)
		case r < 3 && m.gen < math.MaxUint32-8:
			// Skip ahead to the last generations before the stamp wraps
			// (as that many Resets would): the next few Resets must
			// clear the old stamps, not revive them.
			m.Reset()
			m.gen = math.MaxUint32 - 2 - uint32(rng.Intn(3))
			for l2, v := range model {
				m.Set(l2, v)
			}
		case r < 400:
			v := rng.Uint64() | 1
			m.Set(l, v)
			model[l] = v
		case r < 500:
			*m.At(l) += 2
			model[l] += 2
		default:
			if got, want := m.Get(l), model[l]; got != want {
				t.Fatalf("op %d: Get(%v) = %d, model %d", op, l, got, want)
			}
		}
		if op%5000 == 0 {
			checkLocMap(t, op, &m, model)
		}
	}
	checkLocMap(t, -1, &m, model)
}

// TestLocMapGenerationWrap walks a LocMap through the generation
// counter's wrap with locations set in every generation: each Reset must
// leave it empty, including the one that recycles the stamps.
func TestLocMapGenerationWrap(t *testing.T) {
	var m LocMap[int]
	locs := []Loc{IntReg(3), FPReg(31), IntReg(32), Mem(0), Mem(1 << 40), Loc(3 << 62)}
	m.gen = math.MaxUint32 - 4
	for g := 0; g < 8; g++ {
		for _, l := range locs {
			if v := m.Get(l); v != 0 {
				t.Fatalf("generation %d: %v reads %d after Reset", g, l, v)
			}
			m.Set(l, g+1)
		}
		if m.Len() != len(locs) {
			t.Fatalf("generation %d: Len %d, want %d", g, m.Len(), len(locs))
		}
		m.Reset()
		if m.Len() != 0 {
			t.Fatalf("generation %d: Len %d after Reset", g, m.Len())
		}
	}
}

// TestLocMapWarmAllocs: once a LocMap's table has grown to a run's
// footprint, set/get/reset cycles over it allocate nothing.
func TestLocMapWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	locs := make([]Loc, 4096)
	for i := range locs {
		locs[i] = locMapLoc(rng)
	}
	var m LocMap[float64]
	cycle := func() {
		for i, l := range locs {
			m.Set(l, float64(i))
			*m.At(locs[(i*7)%len(locs)]) += m.Get(l)
		}
		m.Reset()
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("warm set/get/reset cycle: %v allocations, want 0", n)
	}
}
