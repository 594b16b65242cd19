// Command tlrexp regenerates every table and figure of the paper's
// evaluation section (Figures 3-9 and the §4.5 bandwidth table).
//
// Usage:
//
//	tlrexp [-budget N] [-skip N] [-window W] [-rtmbudget N] [-fig 6a] [-no-rtm]
//	tlrexp -bench-out BENCH_ci.json [-budget N] [-rtmbudget N]
//
// Each table prints the same series the paper plots, with the paper's
// numbers quoted in the footnote for side-by-side comparison.
//
// With -bench-out, tlrexp instead benchmarks the Figure-9 RTM sweep
// three ways through the public tlr.RunBatch API — sequentially (a
// one-worker Batcher, the seed's serial path), in parallel across a
// Batcher's full worker pool, and warm from its result cache — verifies
// all three agree cell for cell, and writes a JSON timing summary to
// the given file (the CI perf artifact).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/expt"
	"github.com/tracereuse/tlr/internal/replaybench"
)

func main() {
	cfg := expt.DefaultConfig()
	budget := flag.Uint64("budget", cfg.Budget, "instructions per workload (limit studies)")
	skip := flag.Uint64("skip", cfg.Skip, "instructions to skip before measuring")
	window := flag.Int("window", cfg.Window, "finite instruction window size")
	rtmBudget := flag.Uint64("rtmbudget", cfg.RTMBudget, "instructions per workload and configuration (Figure 9)")
	workers := flag.Int("workers", 0, "parallel workers (0 = auto)")
	fig := flag.String("fig", "", "render only the figure whose title contains this substring (e.g. \"6a\")")
	noRTM := flag.Bool("no-rtm", false, "skip the Figure 9 RTM sweep")
	ablations := flag.Bool("ablations", false, "also run the ablations and extensions (block-bounded, strict, valid-bit, speculation, ILP limits, pipeline)")
	benchOut := flag.String("bench-out", "", "benchmark the sequential vs parallel Figure-9 sweep and write a JSON summary to this file")
	flag.Parse()

	cfg.Budget = *budget
	cfg.Skip = *skip
	cfg.Window = *window
	cfg.RTMBudget = *rtmBudget
	cfg.Workers = *workers

	if *benchOut != "" {
		if err := runSweepBench(cfg, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "tlrexp:", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	ms, err := expt.Measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlrexp:", err)
		os.Exit(1)
	}
	tables := expt.LimitTables(ms)
	if *ablations {
		tables = append(tables, expt.AblationTables(ms)...)
		cells, err := expt.MeasureInvalidation(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlrexp:", err)
			os.Exit(1)
		}
		tables = append(tables, expt.InvalidationTable(cells))
		ilp, err := expt.MeasureILP(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlrexp:", err)
			os.Exit(1)
		}
		tables = append(tables, expt.ILPTable(ilp))
		pipe, err := expt.MeasurePipeline(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlrexp:", err)
			os.Exit(1)
		}
		tables = append(tables, expt.PipelineTable(pipe))
	}
	if !*noRTM {
		cells, err := expt.MeasureRTM(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlrexp:", err)
			os.Exit(1)
		}
		tables = append(tables, expt.RTMTables(cells)...)
	}
	shown := 0
	for _, t := range tables {
		if *fig != "" && !strings.Contains(strings.ToLower(t.Title), strings.ToLower(*fig)) {
			continue
		}
		fmt.Println(t.Render())
		shown++
	}
	if *fig != "" && shown == 0 {
		fmt.Fprintf(os.Stderr, "tlrexp: no figure matches %q\n", *fig)
		os.Exit(1)
	}
	fmt.Printf("(%d tables, budget %d/workload, window %d, wall %.1fs)\n",
		shown, cfg.Budget, cfg.Window, time.Since(start).Seconds())
}

// sweepBench is the JSON schema of -bench-out (the BENCH_ci.json CI
// artifact): wall times for the Figure-9 RTM sweep run sequentially,
// in parallel, and warm from the result cache, plus the record/replay
// comparison (BenchmarkReplayVsExecute's grid): the deep-skip analysis
// grid driven by live execution versus by replaying one recording.
type sweepBench struct {
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Cells           int     `json:"cells"`
	RTMBudget       uint64  `json:"rtmBudget"`
	Skip            uint64  `json:"skip"`
	SequentialSecs  float64 `json:"sequentialSeconds"`
	ParallelSecs    float64 `json:"parallelSeconds"`
	WarmSecs        float64 `json:"warmSeconds"`
	Speedup         float64 `json:"speedup"`
	WarmSpeedup     float64 `json:"warmSpeedup"`
	ParallelWorkers int     `json:"parallelWorkers"`

	// The deep-skip record/replay grid.  Its seconds and speedup, and
	// the shallow grid's below, are medians over replayPairs
	// alternating execute/replay pairs.
	ReplayCells   int     `json:"replayCells"`
	ReplaySkip    uint64  `json:"replaySkip"`
	ReplayBudget  uint64  `json:"replayBudget"`
	RecordSecs    float64 `json:"recordSeconds"`
	ExecuteSecs   float64 `json:"executeSeconds"`
	ReplaySecs    float64 `json:"replaySeconds"`
	ReplaySpeedup float64 `json:"replaySpeedup"`

	// The shallow-skip grid: the same cells with a 2000-instruction
	// warm-up.  There is nothing for replay's O(1) seek to amortise, so
	// the ratio isolates decode-vs-execute (plus the analysis cost both
	// sides pay identically); CI gates parity.
	ReplayShallowSkip    uint64  `json:"replayShallowSkip"`
	ExecuteShallowSecs   float64 `json:"executeShallowSeconds"`
	ReplayShallowSecs    float64 `json:"replayShallowSeconds"`
	ReplayShallowSpeedup float64 `json:"replayShallowSpeedup"`

	// Format-level statistics over internal/replaybench's workload mix
	// (see EncodingStats; the timings are medians of interleaved rounds).
	// encodeBytesPerRecord is the v4 container at rest; CI gates it at
	// <= 0.5x of canonicalBytesPerRecord, gates decodeSpeedup (v4
	// plane-split decode vs the canonical per-record decode it replaced)
	// at >= 2.0x, and gates decodeNsPerRecord at <= 2.25x
	// stepNsPerRecord (measured ~1.9x).
	EncodeBytesPerRecord       float64 `json:"encodeBytesPerRecord"`
	EncodedMemBytesPerRecord   float64 `json:"encodedMemBytesPerRecord"`
	CanonicalBytesPerRecord    float64 `json:"canonicalBytesPerRecord"`
	DecodeNsPerRecord          float64 `json:"decodeNsPerRecord"`
	CanonicalDecodeNsPerRecord float64 `json:"canonicalDecodeNsPerRecord"`
	StepNsPerRecord            float64 `json:"stepNsPerRecord"`
	DecodeSpeedup              float64 `json:"decodeSpeedup"`

	// Streamed (on-disk) replay memory: heap bytes allocated by one
	// full incremental replay of a version-4 file at two stream lengths,
	// each the median of alternating replays from empty buffer pools
	// (see replaybench.MeasureStreamMemory).  The constant-memory gate:
	// allocation per replayed record must stay a tiny constant, orders
	// of magnitude below materialising the trace.
	StreamSmallRecords        uint64  `json:"streamSmallRecords"`
	StreamLargeRecords        uint64  `json:"streamLargeRecords"`
	StreamSmallAllocBytes     uint64  `json:"streamSmallAllocBytes"`
	StreamLargeAllocBytes     uint64  `json:"streamLargeAllocBytes"`
	StreamAllocBytesPerRecord float64 `json:"streamAllocBytesPerRecord"`
}

// rtmSweepRequests builds the Figure-9 grid (collection heuristic x RTM
// capacity x workload) as public-API requests.
func rtmSweepRequests(cfg expt.Config) []tlr.Request {
	var reqs []tlr.Request
	for _, h := range expt.RTMHeuristics() {
		for _, g := range expt.RTMGeometries() {
			for _, w := range tlr.Workloads() {
				reqs = append(reqs, tlr.Request{
					ID:       fmt.Sprintf("%s/%s/%v", w.Name, h.Label, g),
					Workload: w.Name,
					RTM:      &tlr.RTMConfig{Geometry: g, Heuristic: h.Heuristic, N: h.N},
					Skip:     cfg.Skip,
					Budget:   cfg.RTMBudget,
				})
			}
		}
	}
	return reqs
}

// rtmPayloads strips the per-run metadata (Cached) so sweeps can be
// compared simulation for simulation.
func rtmPayloads(res []tlr.Result) []tlr.RTMResult {
	out := make([]tlr.RTMResult, len(res))
	for i, r := range res {
		out[i] = *r.RTM
	}
	return out
}

// runSweepBench times the Figure-9 sweep three ways on fresh Batchers
// through the public RunBatch API, checks the runs agree cell for cell,
// and writes the summary JSON.
func runSweepBench(cfg expt.Config, path string) error {
	if cfg.RTMBudget == 0 {
		return fmt.Errorf("-bench-out needs a positive -rtmbudget")
	}
	// Open the output first: an unwritable path should fail before the
	// sweep burns minutes of simulation.  On any later error, remove the
	// empty file so downstream readers see the sweep error, not a JSON
	// decode failure on a zero-byte artifact.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	wrote := false
	defer func() {
		f.Close()
		if !wrote {
			os.Remove(path)
		}
	}()
	ctx := context.Background()
	reqs := rtmSweepRequests(cfg)

	seqB := tlr.NewBatcher(tlr.BatchOptions{Workers: 1})
	defer seqB.Close()
	t0 := time.Now()
	seqRes, err := seqB.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	seq := time.Since(t0)

	parB := tlr.NewBatcher(tlr.BatchOptions{})
	defer parB.Close()
	t1 := time.Now()
	parRes, err := parB.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	par := time.Since(t1)

	t2 := time.Now()
	warmRes, err := parB.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	warm := time.Since(t2)

	seqCells := rtmPayloads(seqRes)
	if !reflect.DeepEqual(seqCells, rtmPayloads(parRes)) {
		return fmt.Errorf("parallel sweep diverged from sequential")
	}
	if !reflect.DeepEqual(seqCells, rtmPayloads(warmRes)) {
		return fmt.Errorf("cache-warm sweep diverged from sequential")
	}

	b := sweepBench{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Cells:           len(seqCells),
		RTMBudget:       cfg.RTMBudget,
		Skip:            cfg.Skip,
		SequentialSecs:  seq.Seconds(),
		ParallelSecs:    par.Seconds(),
		WarmSecs:        warm.Seconds(),
		Speedup:         seq.Seconds() / par.Seconds(),
		WarmSpeedup:     seq.Seconds() / warm.Seconds(),
		ParallelWorkers: parB.Workers(),
	}
	if err := runReplayBench(ctx, &b); err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	wrote = true
	fmt.Printf("Figure-9 sweep: %d cells, budget %d\n", b.Cells, b.RTMBudget)
	fmt.Printf("  sequential %.2fs, parallel %.2fs on %d workers (%.1fx), warm %.3fs (%.0fx)\n",
		b.SequentialSecs, b.ParallelSecs, b.ParallelWorkers, b.Speedup, b.WarmSecs, b.WarmSpeedup)
	fmt.Printf("record/replay grid: %d cells, budget %d\n", b.ReplayCells, b.ReplayBudget)
	fmt.Printf("  deep skip %d:    execute %.2fs, record-once %.2fs, replay %.2fs (%.1fx)\n",
		b.ReplaySkip, b.ExecuteSecs, b.RecordSecs, b.ReplaySecs, b.ReplaySpeedup)
	fmt.Printf("  shallow skip %d: execute %.2fs, replay %.2fs (%.2fx)\n",
		b.ReplayShallowSkip, b.ExecuteShallowSecs, b.ReplayShallowSecs, b.ReplayShallowSpeedup)
	fmt.Printf("trace encoding (workload mix): canonical %.1f B/rec, v4 %.1f B/rec in memory, %.1f on disk\n",
		b.CanonicalBytesPerRecord, b.EncodedMemBytesPerRecord, b.EncodeBytesPerRecord)
	fmt.Printf("  decode %.1f ns/rec (canonical decode %.1f, %.2fx; simulator step %.1f)\n",
		b.DecodeNsPerRecord, b.CanonicalDecodeNsPerRecord, b.DecodeSpeedup, b.StepNsPerRecord)
	fmt.Printf("streamed replay memory: %d records -> %d B allocated, %d records -> %d B (%.2f B/record)\n",
		b.StreamSmallRecords, b.StreamSmallAllocBytes, b.StreamLargeRecords, b.StreamLargeAllocBytes,
		b.StreamAllocBytesPerRecord)
	return nil
}

// replayPairs is how many alternating execute/replay pairs time each
// replay grid.
const replayPairs = 5

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runReplayBench times the deep- and shallow-skip grids
// (internal/replaybench, the same grids BenchmarkReplayVsExecute runs)
// executed live versus replayed from one recording, verifies the runs
// agree cell for cell at both depths (replay equivalence, enforced on
// every CI run), measures the format-level encoding statistics, and
// fills the replay fields of the summary.  Seconds and speedups are
// medians over replayPairs pairs.
func runReplayBench(ctx context.Context, b *sweepBench) error {
	t0 := time.Now()
	rec, err := tlr.Record(ctx, replaybench.RecordSpec())
	if err != nil {
		return err
	}
	record := time.Since(t0)

	runGrid := func(reqs []tlr.Request) ([]tlr.Result, time.Duration, error) {
		batcher := tlr.NewBatcher(tlr.BatchOptions{Workers: 1})
		defer batcher.Close()
		t := time.Now()
		res, err := batcher.RunBatch(ctx, reqs)
		return res, time.Since(t), err
	}
	verify := func(execRes, replayRes []tlr.Result, depth string) error {
		for i := range execRes {
			exe := []any{execRes[i].Study, execRes[i].RTM, execRes[i].VP}
			rep := []any{replayRes[i].Study, replayRes[i].RTM, replayRes[i].VP}
			if !reflect.DeepEqual(exe, rep) {
				return fmt.Errorf("replayed %s grid cell %d diverged from live execution", depth, i)
			}
		}
		return nil
	}

	// Each depth is timed as replayPairs alternating execute/replay
	// pairs and judged by the median ratio, so one noisy run cannot
	// swing the gate; every pair is verified.
	timePairs := func(grid func(tlr.TraceSource) []tlr.Request, depth string) (cells int, exec, replay, ratio float64, err error) {
		var execs, replays, ratios []float64
		for i := 0; i < replayPairs; i++ {
			execRes, e, err := runGrid(grid(nil))
			if err != nil {
				return 0, 0, 0, 0, err
			}
			replayRes, r, err := runGrid(grid(rec))
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if err := verify(execRes, replayRes, depth); err != nil {
				return 0, 0, 0, 0, err
			}
			cells = len(execRes)
			execs = append(execs, e.Seconds())
			replays = append(replays, r.Seconds())
			ratios = append(ratios, e.Seconds()/r.Seconds())
		}
		return cells, median(execs), median(replays), median(ratios), nil
	}
	cells, exec, replay, speedup, err := timePairs(replaybench.Grid, "deep")
	if err != nil {
		return err
	}
	_, execShallow, replayShallow, shallowSpeedup, err := timePairs(replaybench.ShallowGrid, "shallow")
	if err != nil {
		return err
	}

	enc, err := replaybench.MeasureEncoding(300_000)
	if err != nil {
		return err
	}

	memDir, err := os.MkdirTemp("", "tlr-streammem-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(memDir)
	mem, err := replaybench.MeasureStreamMemory(memDir, 200_000)
	if err != nil {
		return err
	}

	b.ReplayCells = cells
	b.ReplaySkip = replaybench.Skip
	b.ReplayBudget = replaybench.Budget
	b.RecordSecs = record.Seconds()
	b.ExecuteSecs = exec
	b.ReplaySecs = replay
	b.ReplaySpeedup = speedup
	b.ReplayShallowSkip = replaybench.ShallowSkip
	b.ExecuteShallowSecs = execShallow
	b.ReplayShallowSecs = replayShallow
	b.ReplayShallowSpeedup = shallowSpeedup
	b.EncodeBytesPerRecord = enc.FileBytesPerRecord
	b.EncodedMemBytesPerRecord = enc.EncodedBytesPerRecord
	b.CanonicalBytesPerRecord = enc.CanonicalBytesPerRecord
	b.DecodeNsPerRecord = enc.DecodeNsPerRecord
	b.CanonicalDecodeNsPerRecord = enc.CanonicalDecodeNsPerRecord
	b.StepNsPerRecord = enc.StepNsPerRecord
	b.DecodeSpeedup = enc.DecodeSpeedup
	b.StreamSmallRecords = mem.SmallRecords
	b.StreamLargeRecords = mem.LargeRecords
	b.StreamSmallAllocBytes = mem.SmallAllocBytes
	b.StreamLargeAllocBytes = mem.LargeAllocBytes
	b.StreamAllocBytesPerRecord = float64(mem.LargeAllocBytes) / float64(mem.LargeRecords)
	return nil
}
