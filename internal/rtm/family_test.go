package rtm

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// Scale of the family tests: Figure 9's cells as the sweep benchmark
// runs them.
const (
	familySkip   = 2_000
	familyBudget = 12_000
)

// figure9Heuristics are Figure 9's ten collection heuristics.
func figure9Heuristics() []Config {
	hs := []Config{{Heuristic: ILRNE}, {Heuristic: ILREXP}}
	for n := 1; n <= 8; n++ {
		hs = append(hs, Config{Heuristic: IEXP, N: n})
	}
	return hs
}

func heuristicName(c Config) string {
	if c.Heuristic == IEXP {
		return fmt.Sprintf("I%d EXP", c.N)
	}
	return c.Heuristic.String()
}

// liveSim runs cfg over a workload's window and returns the finished
// simulation.
func liveSim(t *testing.T, w *workload.Workload, cfg Config) *Sim {
	t.Helper()
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(prog)
	if _, err := c.Run(familySkip, nil); err != nil {
		t.Fatal(err)
	}
	s := NewSim(cfg, c)
	if _, err := s.Run(familyBudget); err != nil {
		t.Fatal(err)
	}
	return s
}

// with returns cfg at geometry g.
func with(cfg Config, g Geometry) Config {
	cfg.Geometry = g
	return cfg
}

// checkFamily checks one run's ResultAs against direct runs: the run
// must derive g exactly whenever it claims to, and must refuse every
// geometry it does not provably equal — fewer sets, and a different
// PCWays or TracesPerPC at g's set count.  It reports whether g was
// derived.
func checkFamily(t *testing.T, what string, r interface {
	ResultAs(Geometry) (Result, bool)
}, own Geometry, g Geometry, direct func(Geometry) Result) bool {
	t.Helper()
	got, ok := r.ResultAs(g)
	if ok && !reflect.DeepEqual(got, direct(g)) {
		t.Errorf("%s: ResultAs(%v) differs from the direct run:\n got %+v\nwant %+v", what, g, got, direct(g))
	}
	for _, other := range []Geometry{
		{Sets: own.Sets / 2, PCWays: own.PCWays, TracesPerPC: own.TracesPerPC},
		{Sets: g.Sets, PCWays: g.PCWays, TracesPerPC: g.TracesPerPC / 2},
		{Sets: g.Sets, PCWays: g.PCWays * 2, TracesPerPC: g.TracesPerPC},
	} {
		if _, ok := r.ResultAs(other); ok {
			t.Errorf("%s: ResultAs(%v) claims a geometry that differs in more than a multiple of Sets", what, other)
		}
	}
	return ok
}

// TestSimResultAsFamily derives every Figure-9 256K cell from its 32K
// twin and compares it with the direct 256K run, Top included, for all
// 14 workloads and 10 heuristics.  tomcatv's ILR EXP run evicts IRB
// slots, so it must refuse; 4K differs from 32K in ways and traces per
// PC, so no 4K run may answer for 32K.
func TestSimResultAsFamily(t *testing.T) {
	derived, cells := 0, 0
	for _, w := range workload.All() {
		for _, h := range figure9Heuristics() {
			what := fmt.Sprintf("%s/%s", w.Name, heuristicName(h))
			s := liveSim(t, w, with(h, Geometry32K))
			direct := func(g Geometry) Result { return liveSim(t, w, with(h, g)).result() }
			if checkFamily(t, what, s, Geometry32K, Geometry256K, direct) {
				derived++
			}
			cells++
			if own, ok := s.ResultAs(Geometry32K); ok && !reflect.DeepEqual(own, s.result()) {
				t.Errorf("%s: ResultAs of the run's own geometry is not its result", what)
			}
			if w.Name == "tomcatv" && h.Heuristic == ILREXP {
				if _, ok := s.ResultAs(Geometry256K); ok {
					t.Errorf("%s: derived 256K although the IRB evicted %d slots", what, s.col.irbSlotEvicts())
				}
			}
			if _, ok := liveSim(t, w, with(h, Geometry4K)).ResultAs(Geometry32K); ok {
				t.Errorf("%s: a 4K run answered for 32K", what)
			}
		}
	}
	t.Logf("derived %d of %d 256K cells from their 32K runs", derived, cells)
	if derived < cells/2 {
		t.Errorf("derived only %d of %d 256K cells: the family is no longer worth running", derived, cells)
	}
}

// TestReplayResultAsFamily is TestSimResultAsFamily for Replay over each
// workload's recorded window, plus one valid-bit (InvalidateOnWrite)
// family per workload.
func TestReplayResultAsFamily(t *testing.T) {
	derived, cells := 0, 0
	for _, w := range workload.All() {
		tr := recordStream(t, w.Name, familySkip, familyBudget)
		replay := func(cfg Config) *Replay {
			p := NewReplay(cfg, tr.Cursor())
			if _, err := p.Run(familyBudget); err != nil {
				t.Fatal(err)
			}
			return p
		}
		hs := append(figure9Heuristics(), Config{Heuristic: ILRNE, InvalidateOnWrite: true})
		for _, h := range hs {
			what := fmt.Sprintf("%s/%s/invalidate=%v", w.Name, heuristicName(h), h.InvalidateOnWrite)
			direct := func(g Geometry) Result { return replay(with(h, g)).result() }
			p := replay(with(h, Geometry32K))
			if checkFamily(t, what, p, Geometry32K, Geometry256K, direct) {
				derived++
			}
			cells++
			if r, ok := p.ResultAs(Geometry256K); ok && !reflect.DeepEqual(r, liveSim(t, w, with(h, Geometry256K)).result()) {
				t.Errorf("%s: replay-derived 256K differs from the live 256K run", what)
			}
		}
	}
	t.Logf("derived %d of %d 256K replays from their 32K runs", derived, cells)
	if derived < cells/2 {
		t.Errorf("derived only %d of %d 256K replays", derived, cells)
	}
}

// TestTopTracesInFinerSetOrder inserts the same traces, in the same
// order, into a coarse RTM and one with eight times its sets, gives
// equal-length traces of a PC equal hit counts (ties the ranking leaves
// to the sort), and requires the coarse RTM's topTraces at the fine set
// count to list exactly what the fine RTM's TopTraces lists.
func TestTopTracesInFinerSetOrder(t *testing.T) {
	coarse := Geometry{Sets: 16, PCWays: 64, TracesPerPC: 4}
	fine := Geometry{Sets: 128, PCWays: 64, TracesPerPC: 4}
	a, b := New(coarse, 1), New(fine, 1)
	for i := range 400 {
		pc := uint64(i * 37 % 512)
		for k := range 3 {
			s := sum(pc, k+1, []trace.Ref{{Loc: trace.IntReg(1), Val: uint64(k)}}, nil)
			a.Insert(s)
			b.Insert(s)
		}
	}
	if a.Stats().PCEvicts != 0 || b.Stats().PCEvicts != 0 {
		t.Fatal("the setup evicted a PC slot")
	}
	setHits := func(m *RTM) {
		for _, set := range m.sets {
			for _, slot := range set {
				for _, e := range slot.traces {
					e.hits = 1 + slot.pc%3
				}
			}
		}
	}
	setHits(a)
	setHits(b)
	got, want := a.topTraces(1<<20, fine.Sets), b.TopTraces(1<<20)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topTraces at %d sets lists the traces in another order than a %d-set RTM", fine.Sets, fine.Sets)
	}
	if own := a.TopTraces(1 << 20); reflect.DeepEqual(own, want) {
		t.Error("the coarse RTM's own order equals the fine one: the test cannot tell them apart")
	}
}
