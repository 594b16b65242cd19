package tlr

// One benchmark per table and figure of the paper's evaluation section
// (DESIGN.md §4 maps them), plus micro-benchmarks of the simulator's hot
// paths.  The figure benchmarks run the same pipelines as cmd/tlrexp at a
// benchmark-sized instruction budget; BenchmarkLimitStudyPipeline is the
// full fan-out measurement that Figures 3-8 share, and the per-figure
// benchmarks include rendering the same rows the paper plots.

import (
	"sync"
	"testing"

	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/expt"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/stats"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// benchConfig is the benchmark-sized harness configuration.
var benchConfig = expt.Config{Budget: 40_000, Skip: 1_000, Window: 256, RTMBudget: 25_000}

var (
	benchOnce sync.Once
	benchMs   []*expt.Measurement
	benchErr  error
)

// measurements runs the shared limit-study pipeline once per test binary.
func measurements(b *testing.B) []*expt.Measurement {
	benchOnce.Do(func() { benchMs, benchErr = expt.Measure(benchConfig) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchMs
}

// BenchmarkLimitStudyPipeline measures the full Figures 3-8 pipeline: 14
// workloads, one simulation each, fanned out to both reuse engines at
// every latency variant.  Every iteration runs on a fresh service, so
// none is answered from the result cache.
func BenchmarkLimitStudyPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{})
		ms, err := expt.MeasureWith(svc, benchConfig)
		svc.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != 14 {
			b.Fatal("suite size")
		}
	}
}

func benchFigure(b *testing.B, render func([]*expt.Measurement) stats.Table) {
	ms := measurements(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := render(ms)
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
		_ = t.Render()
	}
}

func BenchmarkFig3Reusability(b *testing.B)       { benchFigure(b, expt.Fig3) }
func BenchmarkFig4aILRInfWindow(b *testing.B)     { benchFigure(b, expt.Fig4a) }
func BenchmarkFig4bILRLatencySweep(b *testing.B)  { benchFigure(b, expt.Fig4b) }
func BenchmarkFig5aILRFiniteWindow(b *testing.B)  { benchFigure(b, expt.Fig5a) }
func BenchmarkFig5bILRLatencyFinite(b *testing.B) { benchFigure(b, expt.Fig5b) }
func BenchmarkFig6aTLRInfWindow(b *testing.B)     { benchFigure(b, expt.Fig6a) }
func BenchmarkFig6bTLRFiniteWindow(b *testing.B)  { benchFigure(b, expt.Fig6b) }
func BenchmarkFig7TraceSize(b *testing.B)         { benchFigure(b, expt.Fig7) }
func BenchmarkFig8aTLRConstLatency(b *testing.B)  { benchFigure(b, expt.Fig8a) }
func BenchmarkFig8bTLRPropLatency(b *testing.B)   { benchFigure(b, expt.Fig8b) }
func BenchmarkBandwidthTable(b *testing.B)        { benchFigure(b, expt.Bandwidth) }

// Ablation benchmarks (experiments beyond the paper's figures).

// BenchmarkAblationBlockVsTrace renders the basic-block-reuse comparison
// (the paper's §2 Huang & Lilja discussion made executable).
func BenchmarkAblationBlockVsTrace(b *testing.B) { benchFigure(b, expt.BlockVsTrace) }

// BenchmarkAblationStrictVsUpperBound renders the Theorem-2 gap table.
func BenchmarkAblationStrictVsUpperBound(b *testing.B) { benchFigure(b, expt.StrictVsUpperBound) }

// BenchmarkExtensionSpeculationVsReuse renders the value-prediction
// comparison (the paper's §1 speculation-vs-reuse framing).
func BenchmarkExtensionSpeculationVsReuse(b *testing.B) { benchFigure(b, expt.SpeculationVsReuse) }

// BenchmarkAblationInvalidation runs the §3.3 valid-bit vs value-compare
// reuse-test sweep on the 4K RTM.
func BenchmarkAblationInvalidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := expt.MeasureInvalidation(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		t := expt.InvalidationTable(cells)
		_ = t.Render()
	}
}

// BenchmarkExtensionILPLimits runs the window-size IPC sweep (the §1
// motivation from Wall's ILP-limits studies).
func BenchmarkExtensionILPLimits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.MeasureILP(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		t := expt.ILPTable(rows)
		_ = t.Render()
	}
}

// BenchmarkExtensionPipeline runs the execution-driven pipeline
// comparison (base vs RTM under both §3.3 reuse-test triggers).
func BenchmarkExtensionPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.MeasurePipeline(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		t := expt.PipelineTable(rows)
		_ = t.Render()
	}
}

// BenchmarkFig9RTMSweep runs the realistic-RTM sweep (10 heuristics x 4
// capacities x 14 workloads) on a fresh service per iteration, cold, and
// renders both Figure 9 tables.
func BenchmarkFig9RTMSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{})
		cells, err := expt.MeasureRTMWith(svc, benchConfig)
		svc.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range expt.RTMTables(cells) {
			_ = t.Render()
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func benchWorkloadCPU(b *testing.B, name string) *cpu.CPU {
	b.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		b.Fatal("workload missing")
	}
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	return cpu.New(prog)
}

// BenchmarkCPUStep is the functional simulator's per-instruction cost.
func BenchmarkCPUStep(b *testing.B) {
	c := benchWorkloadCPU(b, "compress")
	var e trace.Exec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(&e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryObserve is the limit study's classification cost.
func BenchmarkHistoryObserve(b *testing.B) {
	c := benchWorkloadCPU(b, "gcc")
	h := core.NewHistory()
	var e trace.Exec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(&e); err != nil {
			b.Fatal(err)
		}
		h.Observe(&e)
	}
}

// BenchmarkTLRStudyConsume is the full trace-level limit engine.
func BenchmarkTLRStudyConsume(b *testing.B) {
	c := benchWorkloadCPU(b, "hydro2d")
	s := core.NewTLRStudy(core.TLRConfig{Window: 256, Variants: []core.Latency{core.ConstLatency(1)}})
	var e trace.Exec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(&e); err != nil {
			b.Fatal(err)
		}
		s.Consume(&e)
	}
	s.Finish()
}

// BenchmarkRTMSimStep is the realistic RTM's per-instruction cost
// (lookup + execute + collect): I(4) EXP at 4K entries, I(1) EXP (an
// insert on nearly every instruction) and ILR EXP at 256K entries.
func BenchmarkRTMSimStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  rtm.Config
	}{
		{"I4EXP-4K", rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 4}},
		{"I1EXP-4K", rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 1}},
		{"ILREXP-256K", rtm.Config{Geometry: rtm.Geometry256K, Heuristic: rtm.ILREXP}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sim := rtm.NewSim(bc.cfg, benchWorkloadCPU(b, "ijpeg"))
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := sim.Run(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAssemble is the assembler's throughput on the largest
// generated workload source.
func BenchmarkAssemble(b *testing.B) {
	w, _ := workload.ByName("go")
	src := w.Source()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignature is the input-signature encoding on a 3-input record.
func BenchmarkSignature(b *testing.B) {
	var e trace.Exec
	e.AddIn(trace.IntReg(1), 123)
	e.AddIn(trace.Mem(0x4000), 456)
	e.AddIn(trace.IntReg(2), 789)
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = trace.AppendInputSignature(buf[:0], &e)
	}
	_ = buf
}

// --- batch service benchmarks ---

// BenchmarkFig9SweepSequential is the seed's serial Figure-9 path: the
// whole heuristic x geometry x workload grid on one worker, cold.
func BenchmarkFig9SweepSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{Workers: 1})
		if _, err := expt.MeasureRTMWith(svc, benchConfig); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
}

// BenchmarkFig9SweepParallel is the same grid fanned out across the
// batch service's full worker pool, cold.  The ratio to Sequential is
// the sweep's parallel speedup (recorded in BENCH_ci.json by
// cmd/tlrexp -bench-out).
func BenchmarkFig9SweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{})
		if _, err := expt.MeasureRTMWith(svc, benchConfig); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
}

// BenchmarkFig9SweepWarm is the grid answered entirely from the result
// cache — the repeated-sweep fast path.
func BenchmarkFig9SweepWarm(b *testing.B) {
	svc := service.New(service.Options{})
	defer svc.Close()
	if _, err := expt.MeasureRTMWith(svc, benchConfig); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.MeasureRTMWith(svc, benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}
