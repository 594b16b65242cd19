package rtm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// TestLookupEntrySurvivesEviction: an entry returned by Lookup stays
// intact through the Inserts that follow the hit, even when they evict
// it, and is recycled at the next Lookup.
func TestLookupEntrySurvivesEviction(t *testing.T) {
	m := New(Geometry{Sets: 1, PCWays: 1, TracesPerPC: 1}, 1)
	a := sum(10, 3, []trace.Ref{{Loc: trace.IntReg(1), Val: 1}}, []trace.Ref{{Loc: trace.IntReg(2), Val: 5}})
	m.Insert(a)
	e := m.Lookup(10, fakeState{trace.IntReg(1): 1})
	if e == nil {
		t.Fatal("stored trace not reused")
	}
	for i, pc := range []uint64{20, 30} {
		m.Insert(sum(pc, 4, []trace.Ref{{Loc: trace.Mem(pc), Val: pc}},
			[]trace.Ref{{Loc: trace.IntReg(3), Val: pc}, {Loc: trace.Mem(8), Val: pc}}))
		if !reflect.DeepEqual(e.Sum, a) {
			t.Fatalf("insert %d: the entry just hit was overwritten before the next Lookup: %+v", i, e.Sum)
		}
	}
	if st := m.Stats(); st.PCEvicts != 2 {
		t.Fatalf("PCEvicts = %d, want 2 (test needs the hit entry evicted)", st.PCEvicts)
	}
	if slices.Contains(m.free, e) {
		t.Fatal("the entry just hit was recycled before the next Lookup")
	}
	c := sum(30, 4, []trace.Ref{{Loc: trace.Mem(30), Val: 30}},
		[]trace.Ref{{Loc: trace.IntReg(3), Val: 30}, {Loc: trace.Mem(8), Val: 30}})
	x := m.Lookup(30, fakeState{trace.Mem(30): 30})
	if x == nil {
		t.Fatal("trace at 30 not reused")
	}
	if !slices.Contains(m.free, e) {
		t.Fatal("the evicted entry was not recycled at the next Lookup")
	}
	d := sum(40, 2, nil, []trace.Ref{{Loc: trace.IntReg(4), Val: 40}})
	m.Insert(d) // evicts x, the entry just hit, and stores d in e
	if got := m.Lookup(40, fakeState{}); got != e || !reflect.DeepEqual(got.Sum, d) {
		t.Fatalf("trace stored as %+v in %p, want %+v in the recycled %p", got, got, d, e)
	}
	if !reflect.DeepEqual(x.Sum, c) {
		t.Fatalf("the entry hit at 30 was overwritten before the next Lookup: %+v", x.Sum)
	}
}

// TestRecyclingBoundedWithoutLookups: an RTM's caller may Insert and
// NotifyWrite for a long stretch without calling Lookup.  Evicted and
// invalidated entries must still be recycled at once, so that the
// entries in use stay bounded by the geometry and full-RTM inserts
// allocate nothing.
func TestRecyclingBoundedWithoutLookups(t *testing.T) {
	geom := Geometry{Sets: 2, PCWays: 1, TracesPerPC: 2}
	for _, inval := range []bool{false, true} {
		m := New(geom, 1)
		if inval {
			m.EnableInvalidation()
		}
		// One hit first, so the RTM holds an entry for its caller.
		m.Insert(sum(0, 2, []trace.Ref{{Loc: trace.IntReg(1), Val: 1}}, []trace.Ref{{Loc: trace.IntReg(2), Val: 2}}))
		if m.Lookup(0, fakeState{trace.IntReg(1): 1}) == nil {
			t.Fatal("stored trace not reused")
		}
		sums := make([]trace.Summary, 64)
		for i := range sums {
			v := uint64(i)
			pc := v % 8 // consecutive inserts into a set evict its one PC slot
			sums[i] = sum(pc, 3, []trace.Ref{{Loc: trace.Mem(8 * (v % 3)), Val: v}},
				[]trace.Ref{{Loc: trace.IntReg(3), Val: v}, {Loc: trace.Mem(1024 + pc), Val: v}})
		}
		i := 0
		insert := func() {
			i++
			sm := sums[i%len(sums)]
			m.Insert(sm)
			if inval && i%5 == 0 {
				m.NotifyWrite(sm.Ins[0].Loc)
			}
		}
		for range 10_000 {
			insert()
		}
		st := m.Stats()
		if st.TraceEvicts == 0 || inval && st.Invalidations == 0 {
			t.Fatalf("inval=%v: %+v: the test does not recycle", inval, st)
		}
		if !inval {
			if a := testing.AllocsPerRun(2000, insert); a != 0 {
				t.Errorf("%.0f allocations per insert into a full RTM, want 0", a)
			}
		}
		// A Lookup recycles whatever waited for one: the entries in
		// existence must still fit the geometry, plus the one held.
		m.Lookup(100, fakeState{})
		if n := m.Stored() + len(m.free); n > geom.Entries()+1 {
			t.Errorf("inval=%v: %d entries stored or free, the geometry holds %d",
				inval, n, geom.Entries())
		}
	}
}

// TestReuseHitVictimStaysIntact: with one PC slot, the Insert a reuse
// hit triggers (an expansion that cannot merge with the hit trace) evicts
// the very entry just hit.  The collector then seeds its next expansion
// from that entry, so the Insert must not have recycled it.
func TestReuseHitVictimStaysIntact(t *testing.T) {
	m := New(Geometry{Sets: 1, PCWays: 1, TracesPerPC: 1}, 1)
	c := newCollector(Config{Geometry: m.Geometry(), Heuristic: IEXP, N: 4}, m).(*fixedCollector)
	st := fakeState{trace.IntReg(1): 1, trace.IntReg(2): 2}

	m.Insert(sum(100, 2, []trace.Ref{{Loc: trace.IntReg(1), Val: 1}}, []trace.Ref{{Loc: trace.IntReg(3), Val: 3}}))
	a := m.Lookup(100, st)
	c.reuseHit(a) // seeds the expansion at 100
	var e trace.Exec
	e.PC, e.Next = 102, 103
	e.AddOut(trace.IntReg(4), 4)
	c.observe(&e) // expansion now ends at 103

	b := sum(200, 3, []trace.Ref{{Loc: trace.IntReg(2), Val: 2}},
		[]trace.Ref{{Loc: trace.IntReg(5), Val: 5}, {Loc: trace.Mem(7), Val: 7}})
	m.Insert(b) // evicts 100's slot
	hit := m.Lookup(200, st)
	if hit == nil {
		t.Fatal("trace at 200 not reused")
	}
	// 200 is not where the expansion ends: the collector stores the
	// expansion at 100, evicting 200's slot — the entry just hit — and
	// seeds a new expansion from it.
	c.reuseHit(hit)
	if st := m.Stats(); st.PCEvicts != 2 {
		t.Fatalf("PCEvicts = %d, want 2 (test needs the hit entry evicted by reuseHit)", st.PCEvicts)
	}
	if !reflect.DeepEqual(hit.Sum, b) {
		t.Fatalf("entry just hit overwritten by the Insert it triggered: %+v", hit.Sum)
	}
	if got := *c.pending.Current(); !reflect.DeepEqual(got, b) {
		t.Fatalf("expansion seeded from %+v, want %+v", got, b)
	}
	if m.Lookup(100, st) == nil {
		t.Fatal("the expansion was not stored")
	}
}

// spinProg loops forever over an iteration counter and three instructions
// whose inputs never change: reusable even with the IRB of a tiny
// geometry.
const spinProg = `
main:   ldi  r1, 1
        ldi  r2, 0
loop:   addi r9, r9, 1
        ldi  r3, 5
        xori r2, r2, 1
        bnez r1, loop
`

// clobberProg rewrites, on every iteration, the same value into the
// live-in of its one reusable trace: the valid-bit test invalidates the
// trace each time, the value test reuses it.
const clobberProg = `
main:   ldi  r1, 1
loop:   addi r9, r9, 1
        andi r6, r9, 0
        add  r3, r6, r1
        bnez r1, loop
`

// selfLoopProg is one branch to itself: the only program whose traces a
// one-entry RTM can reuse.
const selfLoopProg = `
main:   ldi  r1, 1
spin:   bnez r1, spin
`

// TestRecyclingGeometriesVerify runs the coupled simulator with Verify on
// geometries so small that nearly every Insert recycles an entry, under
// every heuristic in both reuse-test modes.  Every hit is checked against
// real re-execution, and replaying the recorded stream must give the
// identical result.
func TestRecyclingGeometriesVerify(t *testing.T) {
	const budget = 12_000
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"spin", assemble(t, spinProg)},
		{"clobber", assemble(t, clobberProg)},
		{"selfloop", assemble(t, selfLoopProg)},
		{"loop", assemble(t, loopProg)},
	}
	for _, wname := range []string{"compress", "li"} {
		w, _ := workload.ByName(wname)
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, struct {
			name string
			prog *isa.Program
		}{wname, prog})
	}
	geoms := []Geometry{{Sets: 1, PCWays: 1, TracesPerPC: 1}, {Sets: 2, PCWays: 2, TracesPerPC: 2}}
	heuristics := []Config{{Heuristic: ILRNE}, {Heuristic: ILREXP}, {Heuristic: IEXP, N: 2}}
	var hits, recycled, hitsValid [3]uint64
	for _, p := range progs {
		rec := tracefile.NewRecorder()
		if _, err := cpu.New(p.prog).Run(budget, rec.Write); err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		for _, g := range geoms {
			for _, h := range heuristics {
				for _, inval := range []bool{false, true} {
					cfg := h
					cfg.Geometry, cfg.InvalidateOnWrite = g, inval
					name := fmt.Sprintf("%s/%v/%dx%dx%d/inval=%v", p.name, cfg.Heuristic, g.Sets, g.PCWays, g.TracesPerPC, inval)
					liveCfg := cfg
					liveCfg.Verify = true
					live, err := NewSim(liveCfg, cpu.New(p.prog)).Run(budget)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					replay, err := NewReplay(cfg, tr.Cursor()).Run(budget)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(live, replay) {
						t.Errorf("%s: replay diverged from live simulation:\nlive   %+v\nreplay %+v", name, live, replay)
					}
					hits[h.Heuristic] += live.Hits
					recycled[h.Heuristic] += live.RTM.TraceEvicts + live.RTM.Invalidations
					if inval {
						hitsValid[h.Heuristic] += live.Hits
					}
				}
			}
		}
	}
	for _, h := range heuristics {
		if hits[h.Heuristic] == 0 || recycled[h.Heuristic] == 0 || hitsValid[h.Heuristic] == 0 {
			t.Errorf("%v: %d hits (%d valid-bit), %d entries evicted or invalidated: the test does not exercise recycling",
				h.Heuristic, hits[h.Heuristic], hitsValid[h.Heuristic], recycled[h.Heuristic])
		}
	}
}

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}
