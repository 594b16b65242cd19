package tlr

// Cross-module integration tests: the whole pipeline — workload suite,
// functional simulator, reuse engines and RTM — exercised end to end,
// with differential correctness as the oracle wherever state is touched.

import (
	"context"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/workload"
)

// TestRTMDifferentialOverSuite replays every workload under every
// collection heuristic with per-hit verification (each reused trace is
// cross-executed on a cloned CPU and the full architectural state
// compared).  This is the repository's strongest correctness statement:
// trace reuse never changes program semantics.
func TestRTMDifferentialOverSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []rtm.Config{
				{Geometry: rtm.Geometry512, Heuristic: rtm.ILRNE, Verify: true},
				{Geometry: rtm.Geometry4K, Heuristic: rtm.ILREXP, Verify: true},
				{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 4, Verify: true},
				{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 4, Verify: true, InvalidateOnWrite: true},
			} {
				sim := rtm.NewSim(cfg, cpu.New(prog))
				if _, err := sim.Run(8_000); err != nil {
					t.Fatalf("%v/%v: %v", cfg.Heuristic, cfg.Geometry, err)
				}
			}
		})
	}
}

// TestSuiteStateIndependence runs each workload twice and checks the
// architectural outcome is identical: the whole pipeline is deterministic.
func TestSuiteStateIndependence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			run := func() *cpu.CPU {
				c := cpu.New(prog)
				if _, err := c.Run(20_000, nil); err != nil {
					t.Fatal(err)
				}
				return c
			}
			a, b := run(), run()
			for i := 0; i < 32; i++ {
				if a.Reg(uint8(i)) != b.Reg(uint8(i)) || a.FReg(uint8(i)) != b.FReg(uint8(i)) {
					t.Fatalf("register %d differs between runs", i)
				}
			}
			if a.PC() != b.PC() || !a.Mem().Equal(b.Mem()) {
				t.Fatal("state differs between runs")
			}
		})
	}
}

// TestFacadeMatchesInternalPipeline checks that the package-level Run
// and a dedicated Batcher agree on the same program and budget.  The
// second measurement runs on a fresh Batcher so it cannot be a cache
// hit of the first — the comparison is between two real simulations.
func TestFacadeMatchesInternalPipeline(t *testing.T) {
	w, _ := WorkloadByName("gcc")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(context.Background(), Request{Prog: prog, Study: &StudyConfig{Budget: 30_000, Skip: 1_000, Window: 256}})
	if err != nil {
		t.Fatal(err)
	}
	res := *r1.Study
	cold := NewBatcher(BatchOptions{Workers: 1})
	defer cold.Close()
	r2, err := cold.Run(context.Background(), Request{
		Prog:  prog,
		Study: &StudyConfig{Budget: 30_000, Skip: 1_000, Window: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("fresh Batcher must simulate, not hit a cache")
	}
	res2 := *r2.Study
	if res.ILR.Reusable != res2.ILR.Reusable || res.TLR.BaseCycles != res2.TLR.BaseCycles {
		t.Error("the Study kind is not deterministic")
	}
	if res.ILR.BaseCycles != res.TLR.BaseCycles {
		t.Error("both engines must model the same base machine")
	}
}

// TestWindowSweepMonotonicOnRealWorkload: wider windows never slow the
// base machine down, measured on a real workload stream end to end.
func TestWindowSweepMonotonicOnRealWorkload(t *testing.T) {
	w, _ := WorkloadByName("vortex")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, win := range []int{16, 64, 256, 1024, 0} {
		res, err := Run(context.Background(), Request{Prog: prog, Study: &StudyConfig{Budget: 20_000, Window: win}})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Study.ILR.BaseCycles > prev+1e-6 {
			t.Fatalf("base cycles grew when window widened to %d", win)
		}
		prev = res.Study.ILR.BaseCycles
	}
}

// TestReuseLatencySweepOnRealWorkload: the figure-4b relationship on a
// real stream through the public API.
func TestReuseLatencySweepOnRealWorkload(t *testing.T) {
	w, _ := WorkloadByName("turb3d")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Request{Prog: prog, Study: &StudyConfig{
		Budget:       30_000,
		Skip:         2_000,
		ILRLatencies: []float64{1, 2, 4, 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Study
	for i := 1; i < len(res.ILR.Speedups); i++ {
		if res.ILR.Speedups[i] > res.ILR.Speedups[i-1]+1e-9 {
			t.Fatalf("speedups not monotone in latency: %v", res.ILR.Speedups)
		}
	}
	if res.ILR.Speedups[0] < 2 {
		t.Errorf("turb3d lat-1 ILR speedup %.2f; expected the suite's ILR showcase", res.ILR.Speedups[0])
	}
}

// TestHaltingProgramEndsStudiesCleanly: a Study over a program that
// halts mid-budget must not hang or error.
func TestHaltingProgramEndsStudiesCleanly(t *testing.T) {
	prog, err := Assemble("main: ldi r1, 5\n addi r1, r1, 1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Prog: prog, Study: &StudyConfig{Budget: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Study.ILR.Instructions != 3 {
		t.Errorf("measured %d instructions, want 3", res.Study.ILR.Instructions)
	}
}
