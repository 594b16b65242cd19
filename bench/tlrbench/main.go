// Command tlrbench is the repository's benchmark: four workloads that
// together exercise every layer between a request and the reuse
// engines, each run in a fresh process, with correctness checked inside
// the same command.
//
//	tlrbench -seed N [-runs k] [-out FILE] [-trace DIR]   all four workloads
//	tlrbench --workload W --seed N --seconds S --trace 0|1  one workload, in this process
//	tlrbench compare PARENT.json CHANGE.json               judge a change against its parent
//
// One workload's run prints "<workload> <metric> <value> <unit>" lines
// and, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics.  Untraced runs report the end-to-end
// metrics; traced runs (-trace 1 or -trace DIR) drive the same work
// through spans recorded around the benchmark's calls into each layer
// and report the per-layer metrics, writing the spans to
// DIR/<workload>.spans.jsonl.  See bench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced
// run of every workload; a layer a workload does not exercise reports
// 0.  README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"cpu.step_ns_per_inst", "ns", "lower"},
	{"cpu.skip_share", "ratio", "lower"},
	{"tracefile.record_ns_per_rec", "ns", "lower"},
	{"tracefile.decode_ns_per_rec", "ns", "lower"},
	{"tracefile.skip_us", "us", "lower"},
	{"tracefile.mem_bytes_per_rec", "B", "lower"},
	{"tracefile.spool_ms_per_mib", "ms/MiB", "lower"},
	{"tracefile.filestream_ns_per_rec", "ns", "lower"},
	{"core.study_ns_per_rec", "ns", "lower"},
	{"core.vp_ns_per_rec", "ns", "lower"},
	{"rtm.sim_ns_per_rec", "ns", "lower"},
	{"rtm.replay_ns_per_rec", "ns", "lower"},
	{"analytics.ns_per_rec", "ns", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_p99", "ms", "lower"},
	{"service.worker_busy_ratio", "ratio", "higher"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.hit_us", "us", "lower"},
	{"service.reserve_ns", "ns", "lower"},
	{"service.resolve_us_mem", "us", "lower"},
	{"service.resolve_us_disk", "us", "lower"},
	{"service.disk_read_ratio", "ratio", "lower"},
	{"tlr.request_unmarshal_us", "us", "lower"},
	{"tlr.result_marshal_us", "us", "lower"},
	{"tlrserve.server_ms_p50", "ms", "lower"},
	{"tlrserve.server_ms_p99", "ms", "lower"},
	{"tlrserve.client_overhead_ms", "ms", "lower"},
	{"tlrserve.job_ms.study", "ms", "lower"},
	{"tlrserve.job_ms.rtm", "ms", "lower"},
	{"tlrserve.job_ms.analyze", "ms", "lower"},
	{"tlrserve.http_429", "count", "lower"},
	{"tlrserve.http_5xx", "count", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"bench.throughput_minst_s", "Minst/s", "higher"},
	{"bench.max_ok_rps", "1/s", "higher"},
	{"bench.error_rate", "ratio", "lower"},
	{"bench.samples", "count", "higher"},
	{"bench.latency_p99_ms", "ms", "lower"},
	{"bench.late_p99_ms", "ms", "lower"},
	{"bench.backlog_max", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.speed_factor", "ratio", "lower"},
}

// workloadNames lists the workloads in their default run order.
var workloadNames = []string{"sweep-live", "replay-grid", "serve-read", "serve-write"}

// workloadFuncs runs one workload in this process.
var workloadFuncs = map[string]func(context.Context, *options) (*report, error){
	"sweep-live":  runSweepLive,
	"replay-grid": runReplayGrid,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

// setupReps is how many times a run sets each workload up; setup_s is
// the median, so one slow start-up does not decide it.  Quick set-ups
// repeat more, for the same reason.
var setupReps = map[string]int{"sweep-live": 9, "replay-grid": 3, "serve-read": 5, "serve-write": 9}

// options configures one workload run.
type options struct {
	seed     int64
	seconds  float64
	traceDir string // "" = untraced
	server   string // tlrserve binary
	workdir  string // scratch space (server stores, spooled files)
	golden   string // sweep-live golden hash file
	update   bool   // rewrite the golden hash instead of checking it
	small    bool   // tiny inputs, for the smoke test
}

func (o *options) traced() bool { return o.traceDir != "" }

// report is what one workload run measured.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64 // as measured, before scaling to the reference speed
	atRef     map[string]bool    // values already scaled to the reference speed
	problems  []string
	speed     speedometer
}

func newReport() *report {
	return &report{correct: true, values: make(map[string]float64), atRef: make(map[string]bool)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setAtReference records a value already scaled to the reference speed.
// Set-up runs before the timed phase, while the machine may run at
// another speed than during it, so each set-up is scaled by the kernel
// timed just before it rather than by the timed phase's median.
func (r *report) setAtReference(name string, v float64) {
	r.values[name] = v
	r.atRef[name] = true
}

// mismatch records a failed correctness check.
func (r *report) mismatch(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit selects the metrics a run reports, at the reference machine
// speed: every end-to-end metric when untraced, every per-layer metric
// when traced.  An end-to-end metric a workload failed to measure is an
// error; a per-layer metric of a layer the workload does not exercise
// reports 0.
func (r *report) emit(traced bool) (result, error) {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	f := r.speed.factor()
	r.values["bench.speed_factor"] = f
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if !r.atRef[d.Name] {
			v /= math.Pow(f, float64(speedExponent(d.Unit)))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

func main() {
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("tlrbench", flag.ExitOnError)
	workload := fs.String("workload", "", "run only this workload, in this process ("+strings.Join(workloadNames, ", ")+")")
	only := fs.String("only", "", "comma-separated workloads to run, in this order (default: all four)")
	seed := fs.Int64("seed", 1, "input seed; with -runs k, run i uses seed+i")
	seconds := fs.Float64("seconds", 15, "length of each run's timed phase in seconds")
	traceFlag := fs.String("trace", "0", `"0": untraced; "1" or a directory: traced, spans written there (default <workdir>/spans)`)
	runs := fs.Int("runs", 1, "runs per workload; several report median, quartiles, min and max")
	out := fs.String("out", "", "also write every run's results as JSON to this file")
	server := fs.String("server", "", "tlrserve binary the serve workloads start")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory")
	golden := fs.String("golden", "bench/testdata/sweep-live.sha256", "sweep-live golden result hash")
	update := fs.Bool("update", false, "rewrite the sweep-live golden hash instead of checking it")
	fs.Parse(os.Args[1:])

	o := &options{seed: *seed, seconds: *seconds, server: *server, workdir: *workdir, golden: *golden, update: *update}
	switch *traceFlag {
	case "", "0":
	case "1":
		o.traceDir = filepath.Join(*workdir, "spans")
	default:
		o.traceDir = *traceFlag
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workload != "" {
		os.Exit(runOne(ctx, *workload, o, os.Stdout))
	}
	names := workloadNames
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	os.Exit(runAll(ctx, names, *runs, *traceFlag, *out, o))
}

// runOne runs one workload in this process and prints its result.  It
// prints no result line when the run could not complete.
func runOne(ctx context.Context, name string, o *options, stdout io.Writer) int {
	run, ok := workloadFuncs[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tlrbench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlrbench: %s: %v\n", name, err)
		return 1
	}
	res, err := rep.emit(o.traced())
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlrbench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "tlrbench: %s: CHECK FAILED: %s\n", name, p)
	}
	fmt.Fprintf(os.Stderr, "tlrbench: %s: the machine ran at %.3fx the reference kernel time; timings are scaled by its inverse\n", name, rep.speed.factor())
	printLines(stdout, name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlrbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printLines prints one "<workload> <metric> <value> <unit>" line per
// metric, sorted by name.
func printLines(w io.Writer, name string, res result) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s correct %v attempted %d failed %d\n", name, res.Correct, res.Attempted, res.Failed)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runFile is the JSON an all-workload invocation writes with -out, and
// what compare reads.
type runFile struct {
	Env       env            `json:"env"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Workloads []workloadRuns `json:"workloads"`
	// Bounds are the regression bounds these runs support (see
	// boundsFrom); BENCHMARK.json's come from the committed baseline's.
	Bounds map[string]float64 `json:"bounds,omitempty"`
}

// workloadRuns is every run of one workload, in run order, with each
// metric summarised across them.
type workloadRuns struct {
	Name    string             `json:"name"`
	Runs    []result           `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// summary describes one metric across runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	RelIQR float64 `json:"rel_iqr"`
	N      int     `json:"n"`
}

// env records where a set of runs was measured.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func currentEnv() env {
	e := env{Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			e.Commit += " with uncommitted changes"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// runAll runs each named workload runs times, each run in a fresh child
// process, interleaving workloads within each round.  It prints every
// metric (summarised when runs > 1), optionally writes the JSON, and
// fails when any run failed or any correctness check did.
func runAll(ctx context.Context, names []string, runs int, traceFlag, out string, o *options) int {
	for _, n := range names {
		if _, ok := workloadFuncs[n]; !ok {
			fmt.Fprintf(os.Stderr, "tlrbench: unknown workload %q\n", n)
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlrbench:", err)
		return 1
	}
	rf := runFile{Env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Traced: o.traced()}
	all := make(map[string][]result)
	status := 0
	for i := 0; i < max(runs, 1); i++ {
		for _, n := range names {
			args := []string{
				"--workload", n, "--seed", fmt.Sprint(o.seed + int64(i)),
				"--seconds", fmt.Sprint(o.seconds), "--trace", traceFlag,
				"-server", o.server, "-workdir", o.workdir, "-golden", o.golden,
			}
			if o.update {
				args = append(args, "-update")
			}
			res, err := runChild(ctx, self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlrbench: %s run %d: %v\n", n, i+1, err)
				status = 1
				if ctx.Err() != nil {
					return 1
				}
				continue
			}
			if !res.Correct {
				status = 1
			}
			all[n] = append(all[n], res)
		}
	}
	for _, n := range names {
		wr := workloadRuns{Name: n, Runs: all[n], Summary: summarize(all[n])}
		rf.Workloads = append(rf.Workloads, wr)
		printSummary(os.Stdout, wr)
	}
	if runs >= 5 && !o.traced() {
		rf.Bounds = boundsFrom(rf.Workloads)
		for _, d := range endToEnd {
			fmt.Fprintf(os.Stdout, "bound %s %.2f\n", d.Name, rf.Bounds[d.Name])
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlrbench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, passing its stderr
// through, and parses the result from the last line of its stdout.
func runChild(ctx context.Context, exe string, args []string) (result, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	// Interrupted, the child gets the chance to stop its server.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = fmt.Errorf("no result line: %w", jerr)
		}
		return res, err
	}
	return res, nil
}

// summarize describes each metric across runs.
func summarize(runs []result) map[string]summary {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := make(map[string]summary, len(vals))
	for k, xs := range vals {
		q1, med, q3 := quartiles(xs)
		out[k] = summary{
			Unit: units[k], Median: med, Q1: q1, Q3: q3,
			Min: minOf(xs), Max: maxOf(xs), RelIQR: relIQR(xs), N: len(xs),
		}
	}
	return out
}

// boundsFrom derives each end-to-end metric's regression bound from
// measured spread: three times the widest spread (quartile distance
// over median) any workload showed, so that a bound is three spreads
// wide, rounded up to a hundredth, at least 0.05 and at most 0.25.
// Set-up time, which the runs repeat least, gets the largest bound.
func boundsFrom(ws []workloadRuns) map[string]float64 {
	out := make(map[string]float64)
	largest := 0.0
	for _, d := range endToEnd {
		widest := 0.0
		for _, w := range ws {
			widest = max(widest, w.Summary[d.Name].RelIQR)
		}
		b := min(max(math.Ceil(300*widest)/100, 0.05), 0.25)
		out[d.Name] = b
		largest = max(largest, b)
	}
	out["setup_s"] = largest
	return out
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// printSummary prints one line per metric: the value for a single run,
// the median with quartiles and range for several.
func printSummary(w io.Writer, wr workloadRuns) {
	failed, attempted := 0, 0
	for _, r := range wr.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	for _, k := range sortedKeys(wr.Summary) {
		s := wr.Summary[k]
		if s.N == 1 {
			fmt.Fprintf(w, "%s %s %.6g %s\n", wr.Name, k, s.Median, s.Unit)
			continue
		}
		fmt.Fprintf(w, "%s %s %.6g %s (q1 %.6g, q3 %.6g, min %.6g, max %.6g, spread %.1f%%, n=%d)\n",
			wr.Name, k, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, 100*s.RelIQR, s.N)
	}
	fmt.Fprintf(w, "%s runs %d failed %d of %d operations\n", wr.Name, len(wr.Runs), failed, attempted)
}
