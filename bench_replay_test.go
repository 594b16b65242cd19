package tlr_test

// An external test package so the benchmark can share the grid
// definition with cmd/tlrexp through internal/replaybench (which
// imports tlr, so an in-package test would be an import cycle).

import (
	"context"
	"sync"
	"testing"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/replaybench"
)

var (
	replayBenchOnce  sync.Once
	replayBenchTrace *tlr.Trace
	replayBenchErr   error
)

// benchRecording records the shared stream once across all
// sub-benchmarks (the workflow the benchmark models records once too).
func benchRecording(b *testing.B) *tlr.Trace {
	b.Helper()
	replayBenchOnce.Do(func() {
		replayBenchTrace, replayBenchErr = tlr.Record(context.Background(), replaybench.RecordSpec())
	})
	if replayBenchErr != nil {
		b.Fatal(replayBenchErr)
	}
	return replayBenchTrace
}

func runGrid(b *testing.B, reqs []tlr.Request) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		batcher := tlr.NewBatcher(tlr.BatchOptions{Workers: 1})
		if _, err := batcher.RunBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
		batcher.Close()
	}
}

// BenchmarkReplayVsExecute compares the two ways to drive the
// 100k-instruction analysis grid (see internal/replaybench) at both
// measurement depths: live execution, where every cell re-simulates
// skip+budget instructions, versus replay of a single recording, where
// each cell seeks the recording and decodes only its measured window.
// The recording is made once outside the timers, mirroring the workflow
// it models; cmd/tlrexp -bench-out exports the same comparisons into
// BENCH_ci.json, where CI enforces deep-skip replay >= 2x and
// shallow-skip parity (>= 0.9x; with a 2000-instruction warm-up there
// is nothing to amortise, so the grid ratio is bounded by the analysis
// cost both sides share — what v3 fixed is that decode no longer loses
// this comparison by itself).
func BenchmarkReplayVsExecute(b *testing.B) {
	b.Run("deep/execute", func(b *testing.B) { runGrid(b, replaybench.Grid(nil)) })
	b.Run("deep/replay", func(b *testing.B) {
		rec := benchRecording(b)
		b.ResetTimer()
		runGrid(b, replaybench.Grid(rec))
	})
	b.Run("shallow/execute", func(b *testing.B) { runGrid(b, replaybench.ShallowGrid(nil)) })
	b.Run("shallow/replay", func(b *testing.B) {
		rec := benchRecording(b)
		b.ResetTimer()
		runGrid(b, replaybench.ShallowGrid(rec))
	})
}

// Scale of BenchmarkReplayGridPass: recordings of gridTraceLen records,
// each cell measuring gridBudget of them after a shallow and a deep skip.
const (
	gridTraceLen    = 120_000
	gridShallowSkip = 2_000
	gridDeepSkip    = 100_000
	gridBudget      = 20_000
)

var (
	gridOnce   sync.Once
	gridTraces []*tlr.Trace
	gridErr    error
)

// BenchmarkReplayGridPass runs a replay-grid-shaped batch over stored
// traces on a fresh two-worker Batcher per iteration: for each of four
// recordings (integer, memory-heavy and floating-point streams) and
// each of two skips, three study windows, ILR EXP at four RTM
// capacities, ILR NE and I(4) EXP at 4K, VP and analysis.  The eleven
// cells of one (trace, skip) read the same records, so the batch runs
// as eight stream passes.
func BenchmarkReplayGridPass(b *testing.B) {
	ctx := context.Background()
	gridOnce.Do(func() {
		for _, w := range []string{"gcc", "compress", "ijpeg", "tomcatv"} {
			var t *tlr.Trace
			t, gridErr = tlr.Record(ctx, tlr.RecordSpec{Workload: w, Budget: gridTraceLen})
			if gridErr != nil {
				return
			}
			gridTraces = append(gridTraces, t)
		}
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batcher := tlr.NewBatcher(tlr.BatchOptions{Workers: 2, TraceStoreBytes: 256 << 20})
		var reqs []tlr.Request
		for _, t := range gridTraces {
			d, err := batcher.StoreTrace(t)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, gridCells(tlr.TraceRef(d))...)
		}
		if _, err := batcher.RunBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
		batcher.Close()
	}
}

// gridCells returns the eleven replay-grid cells over src at each skip.
func gridCells(src tlr.TraceSource) []tlr.Request {
	var reqs []tlr.Request
	for _, skip := range []uint64{gridShallowSkip, gridDeepSkip} {
		for _, w := range []int{64, 256, 1024} {
			reqs = append(reqs, tlr.Request{Trace: src, Study: &tlr.StudyConfig{Budget: gridBudget, Skip: skip, Window: w}})
		}
		cell := func(r tlr.Request) {
			r.Trace, r.Skip, r.Budget = src, skip, gridBudget
			reqs = append(reqs, r)
		}
		for _, g := range []tlr.Geometry{tlr.Geometry512, tlr.Geometry4K, tlr.Geometry32K, tlr.Geometry256K} {
			cell(tlr.Request{RTM: &tlr.RTMConfig{Geometry: g, Heuristic: tlr.ILREXP}})
		}
		cell(tlr.Request{RTM: &tlr.RTMConfig{Geometry: tlr.Geometry4K, Heuristic: tlr.ILRNE}})
		cell(tlr.Request{RTM: &tlr.RTMConfig{Geometry: tlr.Geometry4K, Heuristic: tlr.IEXP, N: 4}})
		cell(tlr.Request{VP: &tlr.VPConfig{Window: 256}})
		cell(tlr.Request{Analyze: &tlr.AnalyzeConfig{}})
	}
	return reqs
}
