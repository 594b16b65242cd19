package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/expt"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// The two batch workloads.  Both repeat a fixed grid of cells on a fresh
// two-worker service (cold result caches) for as many passes as fit the
// timed phase, and report medians over passes, so a run measures the
// same work whatever the seed; the seed shuffles the order cells are
// submitted in and, for replay-grid, where each recording starts.

// sweepConfig is sweep-live's grid: the paper's limit studies and the
// 560-cell Figure-9 RTM grid at a tenth of cmd/tlrexp's default budgets,
// so that one pass takes about two seconds on two cores and a run holds
// several.
func sweepConfig(small bool) expt.Config {
	if small {
		return expt.Config{Budget: 3_000, Skip: 2_000, Window: 256, RTMBudget: 1_200, Workers: 2}
	}
	return expt.Config{Budget: 30_000, Skip: 2_000, Window: 256, RTMBudget: 12_000, Workers: 2}
}

// replayScale sizes replay-grid: four recordings of traceLen records,
// each analysed by 11 configurations at a shallow and a deep skip.
type replayScale struct{ traceLen, deepSkip, budget uint64 }

func replayScaleFor(small bool) replayScale {
	if small {
		return replayScale{traceLen: 30_000, deepSkip: 20_000, budget: 10_000}
	}
	return replayScale{traceLen: 600_000, deepSkip: 500_000, budget: 100_000}
}

// shallowSkip is the warm-up of replay-grid's shallow cells: too short
// for replay's O(1) seek to matter, so they isolate decode.
const shallowSkip = 2_000

// replayWorkloads are the programs replay-grid records: integer,
// memory-heavy and floating-point streams.
var replayWorkloads = []string{"gcc", "compress", "ijpeg", "tomcatv"}

// timedPasses calls pass until the next one is not expected to finish
// before the timed phase ends (at least minPasses times), returning each
// pass's wall time in seconds.  The machine's speed is measured before
// every pass and after the last.  peak_rss_mb is the median over passes
// of the process's peak resident set during each: the peak of one whole
// run depends on whether two of the grid's largest cells happened to
// meet one collection cycle, and moved by a quarter from run to run.
func timedPasses(ctx context.Context, seconds float64, minPasses int, rep *report, pass func(i int) error) ([]float64, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var walls, peaks []float64
	for i := 0; i < minPasses || time.Until(deadline).Seconds() >= median(walls); i++ {
		if err := ctx.Err(); err != nil {
			return walls, err
		}
		f := rep.speed.measure()
		resetPeakRSS()
		t0 := time.Now()
		if err := pass(i); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		peaks = append(peaks, vmHWM(os.Getpid()))
		fmt.Fprintf(os.Stderr, "tlrbench: pass %d: %.3f s, peak RSS %.1f MiB, after a kernel at %.3fx\n", i+1, walls[i], peaks[i], f)
	}
	rep.speed.measure()
	rep.set("peak_rss_mb", median(peaks))
	return walls, nil
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set.  Where the kernel refuses, the peak stays
// cumulative, which only makes later passes report the run's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// setLatencies reports through set the median and 95th percentile of
// per-operation latencies, failing when the tail rests on too few
// samples (unless the run is a smoke test at tiny scale, which checks
// plumbing, not numbers), and the 99th percentile when enough samples lie
// beyond it.
func setLatencies(o *options, lats []float64, set func(name string, v float64)) error {
	p95, ok := tailPercentile(lats, 0.95)
	if !ok && !o.small {
		return fmt.Errorf("%d latency samples leave fewer than %d beyond the 95th percentile", len(lats), minBeyond)
	}
	set("latency_p50_ms", percentile(lats, 0.5))
	set("latency_p95_ms", p95)
	if p99, ok := tailPercentile(lats, 0.99); ok {
		set("bench.latency_p99_ms", p99)
	}
	return nil
}

// assembleSuite assembles every workload from its source text: the
// set-up a fresh sweep process pays before its first simulation.
func assembleSuite() (map[string]*isa.Program, error) {
	progs := make(map[string]*isa.Program)
	for _, w := range workload.All() {
		p, err := asm.AssembleNamed(w.Name, w.Source())
		if err != nil {
			return nil, err
		}
		progs[w.Name] = p
	}
	return progs, nil
}

// figure9 lists the Figure-9 grid's cells in expt.MeasureRTMWith's
// order (heuristic, then capacity, then workload), built the same way.
func figure9(cfg expt.Config, progs map[string]*isa.Program) []cellSpec {
	var cells []cellSpec
	for _, h := range expt.RTMHeuristics() {
		for _, g := range expt.RTMGeometries() {
			for _, w := range workload.All() {
				cells = append(cells, cellSpec{
					id:     fmt.Sprintf("%s/%s/%v", w.Name, h.Label, g),
					kind:   kindRTM,
					rtm:    rtm.Config{Geometry: g, Heuristic: h.Heuristic, N: h.N},
					skip:   cfg.Skip,
					budget: cfg.RTMBudget,
					prog:   progs[w.Name],
				})
			}
		}
	}
	return cells
}

// aggregateFigure9 averages the grid's per-workload results into
// Figure 9's cells exactly as expt.MeasureRTMWith does.
func aggregateFigure9(vals []rtm.Result) []expt.RTMCell {
	n := len(workload.All())
	var cells []expt.RTMCell
	k := 0
	for _, h := range expt.RTMHeuristics() {
		for _, g := range expt.RTMGeometries() {
			var fsum, ssum float64
			for range n {
				fsum += vals[k].ReusedFraction()
				ssum += vals[k].AvgReusedLen()
				k++
			}
			cells = append(cells, expt.RTMCell{
				Heuristic: h.Label, Geometry: g,
				ReusedFraction: fsum / float64(n), AvgTraceSize: ssum / float64(n),
			})
		}
	}
	return cells
}

// runFigure9 runs the Figure-9 grid on svc with its jobs submitted in the
// order perm gives, returning the averaged cells, every cell's raw
// result in grid order, and each cell's latency from submission to
// delivery in milliseconds.
func runFigure9(ctx context.Context, svc *service.Service, cfg expt.Config, grid []cellSpec, perm []int) ([]expt.RTMCell, []rtm.Result, []float64, error) {
	jobs := make([]service.Job, len(grid))
	for i, j := range perm {
		c := grid[j]
		jobs[i] = service.RTMJob(c.id, service.ProgSource(c.id[:strings.IndexByte(c.id, '/')], c.prog),
			service.RTMParams{Config: c.rtm, Skip: c.skip, Budget: c.budget})
	}
	vals := make([]rtm.Result, len(grid))
	lats := make([]float64, 0, len(grid))
	t0 := time.Now()
	b := svc.Submit(ctx, jobs, cfg.Workers)
	for range len(jobs) {
		r := <-b.Results()
		lats = append(lats, msSince(t0))
		if r.Err != nil {
			return nil, nil, nil, fmt.Errorf("cell %s: %w", r.ID, r.Err)
		}
		vals[perm[r.Index]] = r.Value.(rtm.Result)
	}
	return aggregateFigure9(vals), vals, lats, nil
}

// sweepOutput is the result sweep-live hashes: every figure's data.
type sweepOutput struct {
	Measurements []*expt.Measurement
	RTM          []expt.RTMCell
}

func runSweepLive(ctx context.Context, o *options) (*report, error) {
	cfg := sweepConfig(o.small)
	rep := newReport()
	var progs map[string]*isa.Program
	var setups []float64
	for range setupReps["sweep-live"] {
		f := kernelFactor()
		t0 := time.Now()
		p, err := assembleSuite()
		if err != nil {
			return nil, err
		}
		service.New(service.Options{Workers: 2}).Close()
		setups = append(setups, time.Since(t0).Seconds()/f)
		progs = p
	}
	// expt.MeasureWith assembles through the workload package's cache;
	// fill it now, outside the timed phase.
	for _, w := range workload.All() {
		if _, err := w.Program(); err != nil {
			return nil, err
		}
	}
	rep.setAtReference("setup_s", median(setups))
	rng := newRNG(o.seed)
	grid := figure9(cfg, progs)
	if o.traced() {
		return rep, sweepTraced(ctx, o, cfg, progs, grid, rng, rep)
	}
	ncells := len(workload.All()) + len(grid)
	insts := float64(uint64(len(workload.All()))*cfg.Budget + uint64(len(grid))*cfg.RTMBudget)

	var lats []float64
	var first []byte
	walls, err := timedPasses(ctx, o.seconds, 1, rep, func(i int) error {
		svc := service.New(service.Options{Workers: 2})
		defer svc.Close()
		ms, err := expt.MeasureWith(svc, cfg)
		if err != nil {
			return err
		}
		cells, _, l, err := runFigure9(ctx, svc, cfg, grid, rng.Perm(len(grid)))
		if err != nil {
			return err
		}
		lats = append(lats, l...)
		rep.attempted += ncells
		b, err := json.Marshal(sweepOutput{ms, cells})
		if err != nil {
			return err
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			rep.mismatch("pass %d's results differ from pass 1's", i+1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("throughput_ops_s", float64(ncells)/median(walls))
	rep.set("bench.throughput_minst_s", insts/median(walls)/1e6)
	if err := setLatencies(o, lats, rep.set); err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("budget=%d rtmbudget=%d skip=%d window=%d", cfg.Budget, cfg.RTMBudget, cfg.Skip, cfg.Window)
	if err := checkGolden(o, tag, first, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// sweepTraced runs sweep-live's grid through the traced runner: one
// untraced pass first for reference results and wall time, then traced
// passes for the rest of the timed phase.
func sweepTraced(ctx context.Context, o *options, cfg expt.Config, progs map[string]*isa.Program, grid []cellSpec, rng *rand.Rand, rep *report) error {
	svc := service.New(service.Options{Workers: 2})
	t0 := time.Now()
	ms, err := expt.MeasureWith(svc, cfg)
	if err != nil {
		svc.Close()
		return err
	}
	_, vals, _, err := runFigure9(ctx, svc, cfg, grid, rng.Perm(len(grid)))
	refWall := time.Since(t0).Seconds()
	svc.Close()
	if err != nil {
		return err
	}
	insts := float64(uint64(len(ms))*cfg.Budget + uint64(len(grid))*cfg.RTMBudget)
	rep.set("bench.throughput_minst_s", insts/refWall/1e6)

	// The cells and their untraced results, in the same order: the limit
	// studies (expt.MeasureWith returns them in suite order), then the
	// grid.
	var cells []cellSpec
	var wants [][]byte
	for i, w := range workload.All() {
		cells = append(cells, cellSpec{id: w.Name, kind: kindMeasure, measure: cfg, prog: progs[w.Name]})
		b, err := json.Marshal(ms[i])
		if err != nil {
			return err
		}
		wants = append(wants, b)
	}
	for i, c := range grid {
		cells = append(cells, c)
		b, err := json.Marshal(vals[i])
		if err != nil {
			return err
		}
		wants = append(wants, b)
	}
	tr := newTracer()
	freshService := func() (*service.Service, func()) {
		svc := service.New(service.Options{Workers: 2})
		return svc, svc.Close
	}
	tp, err := tracedPasses(ctx, o, tr, cells, wants, freshService, rng, rep, func(pass int) error {
		// A cpu-only pass over each workload's RTM window: the
		// simulator's cost without the RTM, subtracted from rtm.sim to
		// derive the RTM's own cost.
		for _, w := range workload.All() {
			root := tr.begin(fmt.Sprintf("w%d/%s", pass, w.Name), "window")
			c := cpu.New(progs[w.Name])
			if _, err := c.RunContext(ctx, cfg.Skip, nil); err != nil {
				return err
			}
			sp := root.child("cpu.window")
			n, err := c.RunContext(ctx, cfg.RTMBudget, nil)
			sp.endRecords(int64(n))
			root.end()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	cellSpans, _ := splitSpans(spans)
	tp.setLayers(rep, cellSpans)
	L := byLayer(spans)
	if sim := L["rtm.sim"]; sim != nil {
		rep.set("rtm.sim_ns_per_rec", sim.nsPer()-L["cpu.window"].nsPer())
	}
	if err := checkCoverage(cellSpans, "cell", 0.05); err != nil {
		rep.mismatch("%v", err)
	}
	return tr.write(o.traceDir, "sweep-live")
}

// tracedRun is what tracedPasses measured.
type tracedRun struct {
	traced, plain []float64 // pass walls in seconds, with and without spans
	waits         []float64 // queue waits of the traced passes' cells, ms
	busyRatio     float64   // share of the traced passes' worker time spent in cells
	heap          *heapSampler
}

// tracedPasses runs the cells through the traced runner for the timed
// phase, alternating passes without spans (the same runner with a nil
// tracer) and with them, so the difference is the cost of tracing.
// Every pass's results must equal want.  after runs once after each
// traced pass, outside its wall time.
func tracedPasses(ctx context.Context, o *options, tr *tracer, cells []cellSpec, want [][]byte,
	service func() (*service.Service, func()), rng *rand.Rand, rep *report, after func(pass int) error) (*tracedRun, error) {
	run := &tracedRun{heap: newHeapSampler()}
	var busy, wall int64
	_, err := timedPasses(ctx, o.seconds, 2, rep, func(pass int) error {
		t := tr
		if pass%2 == 0 {
			t = nil
		}
		svc, done := service()
		defer done()
		t0 := time.Now()
		outs, waits, b, err := runTracedCells(ctx, t, svc, cells, rng.Perm(len(cells)), pass, run.heap)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		rep.attempted += len(cells)
		for i, c := range cells {
			if !bytes.Equal(outs[i], want[i]) {
				rep.mismatch("traced cell %s differs from its untraced result", c.id)
			}
		}
		if t == nil {
			run.plain = append(run.plain, d.Seconds())
			return nil
		}
		run.traced = append(run.traced, d.Seconds())
		run.waits = append(run.waits, waits...)
		busy += b
		wall += int64(d)
		return after(pass)
	})
	run.busyRatio = float64(busy) / float64(2*wall)
	return run, err
}

// setLayers derives the per-layer metrics both batch workloads share
// from the timed phase's cell spans.
func (run *tracedRun) setLayers(rep *report, cellSpans []span) {
	L := byLayer(cellSpans)
	var cellNs int64
	for _, s := range cellSpans {
		if s.Name == "cell" && s.Parent == 0 {
			cellNs += s.dur()
		}
	}
	if sk := L["cpu.skip"]; sk != nil && cellNs > 0 {
		rep.set("cpu.skip_share", float64(sk.selfNs)/float64(cellNs))
	}
	rep.set("cpu.step_ns_per_inst", L["cpu.run"].nsPer())
	rep.set("tracefile.decode_ns_per_rec", L["tracefile.decode"].nsPer())
	rep.set("tracefile.skip_us", L["tracefile.skip"].meanSelf()/1e3)
	rep.set("core.study_ns_per_rec", L["core.study"].nsPer())
	rep.set("core.vp_ns_per_rec", L["core.vp"].nsPer())
	rep.set("rtm.replay_ns_per_rec", L["rtm.replay"].nsPer())
	rep.set("analytics.ns_per_rec", L["analytics"].nsPer())
	rep.set("service.resolve_us_mem", L["service.resolve"].meanSelf()/1e3)
	rep.set("tlr.result_marshal_us", L["marshal"].meanSelf()/1e3)
	rep.set("service.queue_wait_ms_p50", percentile(run.waits, 0.5))
	rep.set("service.queue_wait_ms_p99", percentile(run.waits, 0.99))
	rep.set("service.worker_busy_ratio", run.busyRatio)
	rep.set("runtime.heap_peak_mb", run.heap.peakMB())
	rep.set("bench.samples", float64(len(run.waits)))
	rep.set("bench.trace_overhead_pct", 100*(median(run.traced)/median(run.plain)-1))
}

// runTracedCells submits the traced cells to svc in perm's order, each
// job's Run wrapped to time its queue wait and run.  It returns each
// cell's encoded result (in cells' order), every queue wait in ms, and
// the total time workers spent running cells in ns.
func runTracedCells(ctx context.Context, tr *tracer, svc *service.Service, cells []cellSpec, perm []int, pass int, heap *heapSampler) ([][]byte, []float64, int64, error) {
	outs := make([][]byte, len(cells))
	jobs := make([]service.Job, len(cells))
	var submitted time.Time
	var busy atomic.Int64
	var mu sync.Mutex
	var waits []float64
	for i, j := range perm {
		c := cells[j]
		id := fmt.Sprintf("p%d/%s", pass, c.id)
		jobs[i] = service.Job{ID: c.id, Kind: string(c.kind), Run: func(ctx context.Context) (any, error) {
			start := time.Now()
			bufp := chunkPool.Get().(*[]trace.Exec)
			defer chunkPool.Put(bufp)
			if tr != nil {
				tr.add(span{TraceID: id, Name: "service.queue", Start: tr.at(submitted), End: tr.at(start)})
			}
			root := tr.begin(id, "cell")
			b, err := tracedCell(ctx, &root, svc, c, *bufp)
			root.end()
			heap.sample()
			busy.Add(int64(time.Since(start)))
			mu.Lock()
			waits = append(waits, float64(start.Sub(submitted))/1e6)
			mu.Unlock()
			return b, err
		}}
	}
	submitted = time.Now()
	res, err := svc.Submit(ctx, jobs, 0).Wait()
	if err != nil {
		return nil, nil, 0, err
	}
	for _, r := range res {
		outs[perm[r.Index]] = r.Value.([]byte)
	}
	return outs, waits, busy.Load(), nil
}

// splitSpans separates the timed phase's cell traces (ids "p<pass>/…")
// from set-up traces.
func splitSpans(spans []span) (cells, setup []span) {
	for _, s := range spans {
		if strings.HasPrefix(s.TraceID, "p") {
			cells = append(cells, s)
		} else {
			setup = append(setup, s)
		}
	}
	return cells, setup
}

// checkGolden compares sweep-live's result hash with the committed one
// for the grid it ran (one "<sha256>  <grid>" line per grid), or with
// -update rewrites that line.
func checkGolden(o *options, tag string, out []byte, rep *report) error {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	lines := map[string]string{}
	var order []string
	if f, err := os.Open(o.golden); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			h, t, ok := strings.Cut(sc.Text(), "  ")
			if ok {
				lines[t] = h
				order = append(order, t)
			}
		}
		f.Close()
	} else if !o.update {
		return fmt.Errorf("golden hash: %w", err)
	}
	if !o.update {
		if want, ok := lines[tag]; !ok {
			rep.mismatch("no golden hash for grid %q in %s (run with -update)", tag, o.golden)
		} else if want != got {
			rep.mismatch("sweep-live results hash to %s, golden %s says %s", got, o.golden, want)
		}
		return nil
	}
	if _, ok := lines[tag]; !ok {
		order = append(order, tag)
	}
	lines[tag] = got
	var b strings.Builder
	for _, t := range order {
		fmt.Fprintf(&b, "%s  %s\n", lines[t], t)
	}
	return os.WriteFile(o.golden, []byte(b.String()), 0o644)
}

// vmHWM is a process's peak resident set in MiB, from /proc.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// replayCells lists replay-grid's cells for each stored trace: three
// study windows, four RTM capacities under ILR EXP, the 4K RTM under ILR
// NE and I(4) EXP, value prediction and reuse-distance analysis, each at
// the shallow and the deep skip.
func replayCells(digests []string, sc replayScale) []cellSpec {
	var cells []cellSpec
	for ti, d := range digests {
		for _, skip := range []uint64{shallowSkip, sc.deepSkip} {
			add := func(c cellSpec) {
				c.id = fmt.Sprintf("%s/%s@%d", replayWorkloads[ti], c.id, skip)
				c.digest, c.skip, c.budget = d, skip, sc.budget
				cells = append(cells, c)
			}
			for _, w := range []int{64, 256, 1024} {
				add(cellSpec{id: fmt.Sprintf("study%d", w), kind: kindStudy, window: w})
			}
			for _, g := range []rtm.Geometry{rtm.Geometry512, rtm.Geometry4K, rtm.Geometry32K, rtm.Geometry256K} {
				add(cellSpec{id: fmt.Sprintf("rtm-exp-%v", g), kind: kindRTM, rtm: rtm.Config{Geometry: g, Heuristic: rtm.ILREXP}})
			}
			add(cellSpec{id: "rtm-ne-4k", kind: kindRTM, rtm: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.ILRNE}})
			add(cellSpec{id: "rtm-i4-4k", kind: kindRTM, rtm: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 4}})
			add(cellSpec{id: "vp256", kind: kindVP, window: 256})
			add(cellSpec{id: "analyze", kind: kindAnalyze})
		}
	}
	return cells
}

// request is the public request for a cell over src (a trace reference
// or a workload), with extraSkip added to its warm-up.
func (c cellSpec) request(src tlr.Request, extraSkip uint64) tlr.Request {
	r := src
	r.ID = c.id
	skip := c.skip + extraSkip
	switch c.kind {
	case kindStudy:
		r.Study = &tlr.StudyConfig{Budget: c.budget, Skip: skip, Window: c.window}
		return r
	case kindRTM:
		cfg := c.rtm
		r.RTM = &cfg
	case kindVP:
		r.VP = &tlr.VPConfig{Window: c.window}
	case kindAnalyze:
		r.Analyze = &tlr.AnalyzeConfig{}
	}
	r.Skip, r.Budget = skip, c.budget
	return r
}

// payload encodes what a result computed, without the per-run fields
// (index, cache state), for comparing results across paths.
func payload(r tlr.Result) ([]byte, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return json.Marshal(tlr.Result{ID: r.ID, Kind: r.Kind, Study: r.Study, RTM: r.RTM, VP: r.VP, Analyze: r.Analyze})
}

// recordStarts picks where each replay-grid recording starts, from the
// seed: a few thousand instructions apart, so seeds differ in content
// but not in character.
func recordStarts(rng *rand.Rand) []uint64 {
	starts := make([]uint64, len(replayWorkloads))
	for i := range starts {
		starts[i] = uint64(rng.IntN(16)) * 4096
	}
	return starts
}

func runReplayGrid(ctx context.Context, o *options) (*report, error) {
	sc := replayScaleFor(o.small)
	rep := newReport()
	rng := newRNG(o.seed)
	starts := recordStarts(rng)
	if o.traced() {
		return rep, replayTraced(ctx, o, sc, starts, rng, rep)
	}
	var traces []*tlr.Trace
	var setups []float64
	for range setupReps["replay-grid"] {
		f := kernelFactor()
		t0 := time.Now()
		ts := make([]*tlr.Trace, len(replayWorkloads))
		for i, w := range replayWorkloads {
			t, err := tlr.Record(ctx, tlr.RecordSpec{Workload: w, Skip: starts[i], Budget: sc.traceLen})
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		setups = append(setups, time.Since(t0).Seconds()/f)
		traces = ts
	}
	rep.setAtReference("setup_s", median(setups))

	var cells []cellSpec
	var lats []float64
	var first [][]byte
	walls, err := timedPasses(ctx, o.seconds, 1, rep, func(i int) error {
		b := tlr.NewBatcher(tlr.BatchOptions{Workers: 2, TraceStoreBytes: 256 << 20})
		defer b.Close()
		digests := make([]string, len(traces))
		for k, t := range traces {
			d, err := b.StoreTrace(t)
			if err != nil {
				return err
			}
			digests[k] = d
		}
		cells = replayCells(digests, sc)
		perm := rng.Perm(len(cells))
		reqs := make([]tlr.Request, len(cells))
		for k, j := range perm {
			c := cells[j]
			reqs[k] = c.request(tlr.Request{Trace: tlr.TraceRef(c.digest)}, 0)
		}
		outs := make([][]byte, len(cells))
		t0 := time.Now()
		stream, err := b.StreamBatch(ctx, reqs)
		if err != nil {
			return err
		}
		for r := range stream {
			lats = append(lats, msSince(t0))
			rep.attempted++
			p, err := payload(r)
			if err != nil {
				rep.failed++
				rep.mismatch("cell %s: %v", r.ID, err)
				continue
			}
			outs[perm[r.Index]] = p
		}
		if first == nil {
			first = outs
			return nil
		}
		for k := range outs {
			if !bytes.Equal(outs[k], first[k]) {
				rep.mismatch("pass %d: cell %s differs from pass 1", i+1, cells[k].id)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("throughput_ops_s", float64(len(cells))/median(walls))
	if err := setLatencies(o, lats, rep.set); err != nil {
		return nil, err
	}
	if err := checkLive(ctx, cells, first, starts, rng, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkLive re-runs a seed-chosen eighth of replay-grid's cells by
// executing their programs live and compares them with the replayed
// results.
func checkLive(ctx context.Context, cells []cellSpec, replayed [][]byte, starts []uint64, rng *rand.Rand, rep *report) error {
	pick := rng.Perm(len(cells))[:max(len(cells)/8, 1)]
	reqs := make([]tlr.Request, len(pick))
	for i, k := range pick {
		c := cells[k]
		ti := workloadIndex(c.id)
		reqs[i] = c.request(tlr.Request{Workload: replayWorkloads[ti]}, starts[ti])
	}
	b := tlr.NewBatcher(tlr.BatchOptions{Workers: 2})
	defer b.Close()
	res, err := b.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	for i, k := range pick {
		p, err := payload(res[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(p, replayed[k]) {
			rep.mismatch("replayed cell %s differs from live execution", cells[k].id)
		}
	}
	return nil
}

// workloadIndex finds which recording a replay-grid cell id names.
func workloadIndex(id string) int {
	name, _, _ := strings.Cut(id, "/")
	for i, w := range replayWorkloads {
		if w == name {
			return i
		}
	}
	return 0
}

// replayTraced records under spans (what tlr.Record does, execution and
// encoding timed apart), runs the grid once through RunBatch for
// reference results and wall time, then runs traced passes for the rest
// of the timed phase.
func replayTraced(ctx context.Context, o *options, sc replayScale, starts []uint64, rng *rand.Rand, rep *report) error {
	tr := newTracer()
	svc := service.New(service.Options{Workers: 2, TraceCacheBytes: 256 << 20})
	defer svc.Close()
	ref := tlr.NewBatcher(tlr.BatchOptions{Workers: 2, TraceStoreBytes: 256 << 20})
	defer ref.Close()
	digests := make([]string, len(replayWorkloads))
	var memBytes, records float64
	for i, name := range replayWorkloads {
		w, _ := workload.ByName(name)
		prog, err := w.Program()
		if err != nil {
			return err
		}
		root := tr.begin("record/"+name, "record")
		t, err := recordTraced(ctx, &root, prog, starts[i], sc.traceLen)
		root.end()
		if err != nil {
			return err
		}
		digests[i] = svc.AddTrace(t)
		memBytes += float64(t.Bytes())
		records += float64(t.Records())
		var buf bytes.Buffer
		if _, err := t.WriteTo(&buf); err != nil {
			return err
		}
		info, err := ref.StoreTraceFrom(&buf)
		if err != nil {
			return err
		}
		if info.Digest != digests[i] {
			rep.mismatch("%s: traced recording digests to %s, stored copy to %s", name, digests[i], info.Digest)
		}
	}
	rep.set("tracefile.mem_bytes_per_rec", memBytes/records)

	cells := replayCells(digests, sc)
	reqs := make([]tlr.Request, len(cells))
	for k, c := range cells {
		reqs[k] = c.request(tlr.Request{Trace: tlr.TraceRef(c.digest)}, 0)
	}
	t0 := time.Now()
	res, err := ref.RunBatch(ctx, reqs)
	refWall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	want := make([][]byte, len(cells))
	for k := range res {
		if want[k], err = payload(res[k]); err != nil {
			return err
		}
	}
	rep.set("bench.throughput_minst_s", float64(uint64(len(cells))*sc.budget)/refWall/1e6)

	shared := func() (*service.Service, func()) { return svc, func() {} }
	tp, err := tracedPasses(ctx, o, tr, cells, want, shared, rng, rep, func(int) error { return nil })
	if err != nil {
		return err
	}
	cellSpans, setupSpans := splitSpans(tr.snapshot())
	tp.setLayers(rep, cellSpans)
	rep.set("tracefile.record_ns_per_rec", byLayer(setupSpans)["tracefile.record"].nsPer())
	if err := checkCoverage(cellSpans, "cell", 0.05); err != nil {
		rep.mismatch("%v", err)
	}
	return tr.write(o.traceDir, "replay-grid")
}
