package analytics

import (
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// naiveAnalyzer is the brute-force O(n²) reference: one explicit LRU
// stack per class, distance = position in the stack.  The engine must
// match it bin for bin on every tested stream.
type naiveAnalyzer struct {
	records uint64
	stacks  [3][]trace.Loc // most recently used first
	hists   [3]Hist
}

func (a *naiveAnalyzer) consume(e *trace.Exec) {
	a.records++
	for _, r := range e.Inputs() {
		a.access(r.Loc)
	}
	for _, r := range e.Outputs() {
		a.access(r.Loc)
	}
}

func (a *naiveAnalyzer) access(l trace.Loc) {
	k := min(l.Kind(), trace.KindMem) // any other kind counts as memory
	st := a.stacks[k]
	h := &a.hists[k]
	h.Accesses++
	pos := -1
	for i, x := range st {
		if x == l {
			pos = i
			break
		}
	}
	if pos < 0 {
		h.Cold++
		st = append(st, l)
		a.stacks[k] = st
		pos = len(st) - 1
	} else {
		h.Bins[BinOf(uint64(pos))]++
	}
	copy(st[1:pos+1], st[:pos])
	st[0] = l
}

func (a *naiveAnalyzer) result() Result {
	res := Result{Records: a.records}
	for k := trace.KindIntReg; k <= trace.KindMem; k++ {
		h := a.hists[k]
		h.Distinct = uint64(len(a.stacks[k]))
		*res.Class(k) = h
	}
	return res
}

func TestBinOf(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {15, 0}, {16, 1}, {31, 1}, {32, 2}, {63, 2},
		{64, 3}, {127, 3}, {128, 4}, {255, 4}, {256, 5}, {1 << 40, 5},
	}
	for _, c := range cases {
		if got := BinOf(c.d); got != c.want {
			t.Errorf("BinOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < NumBins; i++ {
		if BinLabel(i) == "" {
			t.Errorf("BinLabel(%d) is empty", i)
		}
	}
}

// TestSyntheticPatterns pins the distance semantics on streams whose
// histograms are known in closed form.
func TestSyntheticPatterns(t *testing.T) {
	rec := func(locs ...trace.Loc) *trace.Exec {
		e := &trace.Exec{}
		for _, l := range locs {
			e.AddIn(l, 0)
		}
		return e
	}

	t.Run("repeated single location", func(t *testing.T) {
		a := New()
		for i := 0; i < 100; i++ {
			a.Consume(rec(trace.Mem(7)))
		}
		m := a.Result().Mem
		if m.Cold != 1 || m.Bins[0] != 99 || m.Accesses != 100 || m.Distinct != 1 {
			t.Fatalf("repeated loc: %+v", m)
		}
	})

	t.Run("all distinct is all cold", func(t *testing.T) {
		a := New()
		for i := uint64(0); i < 500; i++ {
			a.Consume(rec(trace.Mem(i)))
		}
		m := a.Result().Mem
		if m.Cold != 500 || m.Distinct != 500 {
			t.Fatalf("distinct stream: %+v", m)
		}
		for i, b := range m.Bins {
			if b != 0 {
				t.Fatalf("bin %d = %d on an all-cold stream", i, b)
			}
		}
	})

	t.Run("cyclic sweep hits one bin", func(t *testing.T) {
		// Sweeping N locations round-robin: after the cold pass, every
		// access re-touches its location at distance exactly N-1.
		const n = 40 // distance 39 -> bin "32-63"
		a := New()
		for pass := 0; pass < 5; pass++ {
			for i := uint64(0); i < n; i++ {
				a.Consume(rec(trace.Mem(i)))
			}
		}
		m := a.Result().Mem
		if m.Cold != n || m.Bins[2] != 4*n {
			t.Fatalf("cyclic sweep: %+v", m)
		}
	})

	t.Run("classes are independent", func(t *testing.T) {
		// Interleaving classes must not perturb each class's distances:
		// r1 is re-accessed with only memory traffic in between.
		a := New()
		a.Consume(rec(trace.IntReg(1)))
		for i := uint64(0); i < 300; i++ {
			a.Consume(rec(trace.Mem(i)))
		}
		a.Consume(rec(trace.IntReg(1)))
		r := a.Result()
		if r.IntReg.Bins[0] != 1 {
			t.Fatalf("intreg distance polluted by mem accesses: %+v", r.IntReg)
		}
		if r.Mem.Cold != 300 {
			t.Fatalf("mem: %+v", r.Mem)
		}
	})
}

// TestMatchesBruteForceOnWorkloads proves the engine equal to the O(n²)
// reference across real workload grid cells: several
// workloads, several (skip, budget) windows each.
func TestMatchesBruteForceOnWorkloads(t *testing.T) {
	cells := []struct {
		workload string
		skip     uint64
		budget   uint64
	}{
		{"compress", 0, 4000},
		{"compress", 1000, 3000},
		{"li", 0, 4000},
		{"hydro2d", 0, 4000},
		{"hydro2d", 500, 2500},
	}
	for _, c := range cells {
		w, ok := workload.ByName(c.workload)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		m := cpu.New(prog)
		if c.skip > 0 {
			if _, err := m.Run(c.skip, nil); err != nil {
				t.Fatal(err)
			}
		}
		fast := New()
		naive := &naiveAnalyzer{}
		if _, err := m.Run(c.budget, func(e *trace.Exec) {
			fast.Consume(e)
			naive.consume(e)
		}); err != nil {
			t.Fatal(err)
		}
		got, want := fast.Result(), naive.result()
		if got != want {
			t.Errorf("%s skip=%d budget=%d:\n engine %+v\n naive  %+v",
				c.workload, c.skip, c.budget, got, want)
		}
		if got.Records == 0 || got.IntReg.Accesses == 0 {
			t.Errorf("%s: degenerate stream: %+v", c.workload, got)
		}
	}
}

// TestCompactionPreservesDistances forces many timeline compactions with
// a small distinct set and checks against the reference, so the rebuild
// path is exercised, not just the steady state.
func TestCompactionPreservesDistances(t *testing.T) {
	fast := New()
	naive := &naiveAnalyzer{}
	// 64 distinct locations, ~200k accesses in a pseudo-random pattern:
	// the 1024-slot initial timeline compacts hundreds of times.
	x := uint64(12345)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		e := &trace.Exec{}
		e.AddIn(trace.Mem(x%64), 0)
		e.AddIn(trace.IntReg(uint8(x>>32%16)), 0)
		fast.Consume(e)
		naive.consume(e)
	}
	if got, want := fast.Result(), naive.result(); got != want {
		t.Fatalf("compaction diverged:\n engine %+v\n naive  %+v", got, want)
	}
}

// TestRegisterClassPastRecencyList feeds each register class far more
// distinct locations than its recency list holds, re-accessed at
// distances on both sides of the list's capacity, and checks every bin,
// cold count and distinct count against the reference.
func TestRegisterClassPastRecencyList(t *testing.T) {
	fast := New()
	naive := &naiveAnalyzer{}
	x := uint64(99)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Working sets of 300 and 600 locations put most re-accesses
		// near and past distance 256; the register file's own indexes
		// stay among them.
		e := &trace.Exec{}
		e.AddIn(trace.Loc(uint64(trace.KindIntReg)<<62|x>>33%300), 0)
		e.AddIn(trace.Loc(uint64(trace.KindFPReg)<<62|x>>45%600), 0)
		e.AddOut(trace.IntReg(uint8(x>>20%8)), 0)
		fast.Consume(e)
		naive.consume(e)
	}
	got, want := fast.Result(), naive.result()
	if got != want {
		t.Fatalf("diverged:\n engine %+v\n naive  %+v", got, want)
	}
	for _, h := range []Hist{got.IntReg, got.FPReg} {
		if h.Distinct <= farDist || h.Bins[NumBins-1] == 0 || h.Bins[NumBins-2] == 0 {
			t.Fatalf("stream does not cross the recency list's capacity: %+v", h)
		}
	}
}

// TestUnknownKindCountsAsMemory pins that a location of the fourth kind,
// which a trace file can carry, is counted with memory words (as
// Result.Class and ClassLabel name it) rather than crashing the engine.
func TestUnknownKindCountsAsMemory(t *testing.T) {
	a := New()
	odd := trace.Loc(3<<62 | 5)
	for _, l := range []trace.Loc{odd, trace.Mem(5), odd} {
		e := &trace.Exec{}
		e.AddIn(l, 0)
		a.Consume(e)
	}
	m := a.Result().Mem
	if m.Accesses != 3 || m.Cold != 2 || m.Bins[0] != 1 || m.Distinct != 2 {
		t.Fatalf("fourth-kind locations: %+v", m)
	}
}

// BenchmarkAnalyzer reports the engine's cost per record on an
// integer-register-heavy stream (compress) and an FP- and memory-heavy
// one (tomcatv), so each class's path is tracked.
func BenchmarkAnalyzer(b *testing.B) {
	for _, name := range []string{"compress", "tomcatv"} {
		b.Run(name, func(b *testing.B) {
			w, ok := workload.ByName(name)
			if !ok {
				b.Fatalf("unknown workload %q", name)
			}
			prog, err := w.Program()
			if err != nil {
				b.Fatal(err)
			}
			var recs []trace.Exec
			m := cpu.New(prog)
			if _, err := m.Run(20_000, func(e *trace.Exec) { recs = append(recs, *e) }); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := New()
				for j := range recs {
					a.Consume(&recs[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
