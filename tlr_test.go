package tlr

import (
	"context"
	"strings"
	"testing"
)

const testLoop = `
main:   ldi  r9, 200
outer:  ldi  r1, 3
        ldi  r2, 0
inner:  add  r2, r2, r1
        subi r1, r1, 1
        bgtz r1, inner
        st   r2, sum
        subi r9, r9, 1
        bgtz r9, outer
        halt
        .data
sum:    .space 1
`

func TestAssembleAndDisassemble(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	src := Disassemble(p)
	q, err := Assemble(src)
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	if len(q.Insts) != len(p.Insts) {
		t.Errorf("round trip changed instruction count: %d != %d", len(q.Insts), len(p.Insts))
	}
}

func TestMeasureReuseOnLoop(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 1000, Window: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Study.ILR.Instructions != 1000 || res.Study.TLR.Instructions != 1000 {
		t.Fatalf("instruction counts: %d / %d", res.Study.ILR.Instructions, res.Study.TLR.Instructions)
	}
	// The loop repeats identical iterations: most instructions reusable.
	if res.Study.ILR.Reusability() < 0.5 {
		t.Errorf("reusability %.2f too low for a repetitive loop", res.Study.ILR.Reusability())
	}
	// Theorem 1: TLR reuses exactly the ILR-reusable set.
	if res.Study.TLR.ReusedInstructions != res.Study.ILR.Reusable {
		t.Errorf("TLR reused %d != ILR reusable %d", res.Study.TLR.ReusedInstructions, res.Study.ILR.Reusable)
	}
	if res.Study.TLR.Speedups[0] < 1 {
		t.Errorf("TLR speedup %.2f < 1", res.Study.TLR.Speedups[0])
	}
}

func TestMeasureReuseDefaults(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Study.ILR.Speedups) != 1 || len(res.Study.TLR.Speedups) != 1 {
		t.Error("defaults should evaluate exactly one latency per engine")
	}
}

func TestMeasureReuseRequiresBudget(t *testing.T) {
	p, _ := Assemble(testLoop)
	if _, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{}}); err == nil {
		t.Error("zero budget should error")
	}
}

func TestMeasureReuseSkip(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	// Skip jumps past a non-repetitive initialisation phase, exactly as
	// the paper skips each benchmark's first 25 M instructions.  A cold
	// measurement spends its budget in the fresh init chain; a skipped
	// one lands in the repetitive steady state.
	initProg := `
main:   ldi  r1, 123
        ldi  r2, 64
ini:    muli r1, r1, 31
        addi r1, r1, 7
        subi r2, r2, 1
        bgtz r2, ini
loop:   ldi  r3, 5
        addi r4, r3, 1
        st   r4, x
        jmp  loop
        .data
x:      .space 1
`
	p, err = Assemble(initProg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 200}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 200, Skip: 300}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Study.ILR.Reusability() <= cold.Study.ILR.Reusability() {
		t.Errorf("post-init reusability %.3f <= cold %.3f", warm.Study.ILR.Reusability(), cold.Study.ILR.Reusability())
	}
}

func TestWorkloadsFacade(t *testing.T) {
	ws := Workloads()
	if len(ws) != 14 {
		t.Fatalf("Workloads() = %d, want 14", len(ws))
	}
	w, ok := WorkloadByName("compress")
	if !ok {
		t.Fatal("compress missing")
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Prog: prog, Study: &StudyConfig{Budget: 5_000, Skip: 1_000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Study.ILR.Reusability() == 0 {
		t.Error("compress should show reuse")
	}
}

func TestSimulateRTMFacade(t *testing.T) {
	w, _ := WorkloadByName("hydro2d")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Request{Prog: prog, RTM: &RTMConfig{Geometry: Geometry4K, Heuristic: IEXP, N: 4}, Budget: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	res := out.RTM
	if res.Total() < 30_000 {
		t.Errorf("Total = %d", res.Total())
	}
	if res.Skipped == 0 {
		t.Error("hydro2d under a 4K RTM should reuse traces")
	}
}

func TestLatencyHelpers(t *testing.T) {
	if ConstLatency(3).Of(5, 5) != 3 {
		t.Error("ConstLatency")
	}
	if PropLatency(0.5).Of(3, 1) != 2 {
		t.Error("PropLatency")
	}
}

func TestGeometriesExported(t *testing.T) {
	if Geometry512.Entries() != 512 || Geometry256K.Entries() != 262144 {
		t.Error("geometry re-exports broken")
	}
}

func TestStrictStudy(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(context.Background(), Request{Prog: p, Study: &StudyConfig{Budget: 1000, Strict: true, MaxRunLen: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Study.TLR.ReusedInstructions > ub.Study.TLR.ReusedInstructions {
		t.Error("strict mode must not reuse more than the upper bound")
	}
}

func TestSimulatePipelineFacade(t *testing.T) {
	w, _ := WorkloadByName("su2cor")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Request{Prog: prog, Pipeline: &PipelineConfig{}, Skip: 1_000, Budget: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	base := out.Pipeline
	if base.IPC() <= 0 || base.IPC() > 4+1e-9 {
		t.Fatalf("base IPC %.2f outside (0, 4]", base.IPC())
	}
	rcfg := RTMConfig{Geometry: Geometry256K, Heuristic: ILRNE}
	out, err = Run(context.Background(), Request{Prog: prog, Pipeline: &PipelineConfig{RTM: &rcfg, WaitForOperands: true}, Skip: 1_000, Budget: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	reuse := out.Pipeline
	if reuse.Skipped == 0 {
		t.Error("expected trace reuse on su2cor")
	}
	if reuse.IPC() <= base.IPC() {
		t.Errorf("reuse IPC %.2f should beat base %.2f", reuse.IPC(), base.IPC())
	}
}

func TestMeasureValuePrediction(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Request{Prog: p, VP: &VPConfig{Window: 256}, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := out.VP
	if res.Instructions != 1000 {
		t.Fatalf("Instructions = %d", res.Instructions)
	}
	// The constant ldi/st outputs repeat every iteration; the inner
	// accumulator cycles and defeats a last-value predictor.
	if f := res.PredictedFraction(); f < 0.15 || f > 0.6 {
		t.Errorf("predictability %.2f outside the expected band", f)
	}
	if res.Speedup < 1 {
		t.Errorf("speedup %.2f < 1", res.Speedup)
	}
	if _, err := Run(context.Background(), Request{Prog: p, VP: &VPConfig{}}); err == nil {
		t.Error("zero budget should error")
	}
}

func TestDisassembleWorkloadSources(t *testing.T) {
	// Smoke test: the facade round-trips a real workload program.
	w, _ := WorkloadByName("li")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	src := Disassemble(prog)
	if !strings.Contains(src, ".data") {
		t.Error("disassembly missing data section")
	}
	if _, err := Assemble(src); err != nil {
		t.Errorf("reassemble li: %v", err)
	}
}
