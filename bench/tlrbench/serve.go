package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// The serve workloads run cmd/tlrserve as a child process (GOMAXPROCS=2,
// two workers) and drive it with the open-loop generator through a rate
// ladder: after a warm-up, a nominal step at about 35% of the server's
// measured capacity (where latency is reported), a step at 1.5x, and a
// saturation step at 4x (where throughput is reported).  At 60% of
// capacity the latency tail swung with every drift of the machine's
// speed; at 35% it follows the service time.  The ladder's
// rates are fixed here, not derived from the server, so a faster server
// shows up as lower latency and higher saturation throughput at the same
// offered load.  They are rates at the reference machine speed, like
// every reported number: each step offers its rate divided by the speed
// factor measured just before it.  On a machine running at half speed, a
// fixed 35% of capacity would be 70%, where queueing, not the program,
// sets the tail.

// ladder is each step's rate as a multiple of the nominal rate and its
// share of the timed phase.
var ladder = []struct{ factor, share float64 }{{1, 0.4}, {1.5, 0.2}, {4, 0.4}}

// nominalSlices is how many slices the nominal step runs as, with the
// kernel timed before each, so that the latencies it reports are scaled
// by speeds measured within seconds of them.
const nominalSlices = 4

// fastest is the highest machine speed, as a multiple of the reference
// speed, the serve workloads prepare enough requests for.
const fastest = 2

// keepEvery is the sampling stride of responses checked against the
// library computing the same request in this process.
const keepEvery = 16

// serveScale sizes the serve workloads' inputs and offered load.
type serveScale struct {
	readTraceLen  uint64  // serve-read: records per uploaded trace
	warmKeys      int     // serve-read: result keys warmed before the timed phase
	warmBudget    uint64  // serve-read: instructions per warmed key
	missBudget    uint64  // serve-read: instructions per fresh (missing) request, about
	writeTraceLen uint64  // serve-write: records per uploaded trace
	csvLines      int     // serve-write: lines per ingested CSV
	queryBudget   uint64  // serve-write: records a query reads
	readRate      float64 // serve-read nominal requests per second
	writeRate     float64 // serve-write nominal requests per second
	// warmup is how long the nominal rate runs, uncounted, before the
	// ladder.
	warmup time.Duration
}

func serveScaleFor(small bool) serveScale {
	if small {
		return serveScale{readTraceLen: 20_000, warmKeys: 16, warmBudget: 1_000, missBudget: 2_000,
			writeTraceLen: 2_000, csvLines: 500, queryBudget: 1_000, readRate: 100, writeRate: 50, warmup: 200 * time.Millisecond}
	}
	return serveScale{readTraceLen: 300_000, warmKeys: 256, warmBudget: 8_000, missBudget: 50_000,
		writeTraceLen: 20_000, csvLines: 5_000, queryBudget: 5_000, readRate: 350, writeRate: 150, warmup: 2 * time.Second}
}

// serveDef is one serve workload: its server flags, its seeded inputs
// and what to do with them.
type serveDef struct {
	name    string
	limitMs float64 // latency limit at the 99th percentile
	rate    float64 // nominal rate
	warmup  time.Duration
	routes  []string
	ops     []op
	// serverArgs are the tlrserve flags beyond address and workers, for a
	// store rooted at dir.
	serverArgs func(dir string) []string
	// setup prepares a fresh server: uploads, warm keys.
	setup func(ctx context.Context, base string) error
	// check validates one successful response (uploads and ingests must
	// answer with the locally computed digest).
	check func(o *op, status int, body []byte) error
	// verify recomputes kept responses in this process.
	verify func(ctx context.Context, kept []sample, rep *report) error
	// replay drives ops through the layers in this process under tr (nil:
	// untraced), returning its wall time.
	replay func(ctx context.Context, tr *tracer, ops []int, responses map[int]sample, rep *report) (time.Duration, error)
}

// opsNeeded is how many ops the warm-up and ladder can issue on a
// machine up to fastest times the reference speed.
func opsNeeded(rate, seconds float64, warmup time.Duration) int {
	n := rate * warmup.Seconds()
	for _, l := range ladder {
		n += rate * l.factor * seconds * l.share
	}
	return int(fastest*n) + senders
}

// runServe sets the workload up, runs the warm-up and the ladder, and
// reports into rep.
func runServe(ctx context.Context, o *options, d *serveDef, rep *report) (*report, error) {
	var tr *tracer
	if o.traced() {
		tr = newTracer()
	}
	var srv *server
	var setups []float64
	var dir string
	defer func() {
		if srv != nil {
			srv.stop()
		}
		os.RemoveAll(dir)
	}()
	reps := setupReps[d.name]
	for i := range reps {
		var err error
		if dir, err = scratchDir(o, d.name); err != nil {
			return nil, err
		}
		f := kernelFactor()
		t0 := time.Now()
		if srv, err = startServer(ctx, o.server, logPath(dir), d.serverArgs(dir)...); err != nil {
			return nil, err
		}
		if err := d.setup(ctx, srv.base); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()/f)
		if i < reps-1 {
			srv.stop()
			srv = nil
			os.RemoveAll(dir)
		}
	}
	rep.setAtReference("setup_s", median(setups))

	g := newLoadgen(srv.base, d.ops, d.check)
	_, next := g.runStep(ctx, 0, step{rate: d.rate / kernelFactor(), dur: d.warmup, grace: time.Second}, nil)

	var scrapes [][]metrics.Sample
	scrapeNow := func() {
		if !o.traced() {
			return
		}
		ss, err := scrape(ctx, g.client, srv.base)
		if err != nil {
			rep.mismatch("scraping /metrics: %v", err)
		}
		scrapes = append(scrapes, ss)
	}
	var stats []stepStats
	var factors [][]float64 // kernel factors measured before each step's slices
	var nominal, kept []sample
	scrapeNow()
	for i, l := range ladder {
		n := 1
		if i == 0 {
			n = nominalSlices
		}
		ref := d.rate * l.factor
		var fs []float64
		var parts []stepStats
		for j := range n {
			f := rep.speed.measure()
			fs = append(fs, f)
			st := step{rate: ref / f, dur: time.Duration(o.seconds * l.share / float64(n) * float64(time.Second)), grace: time.Second}
			if i == len(ladder)-1 {
				st.grace = 0
			}
			// Every sixteenth response is checked; a traced run also keeps the
			// nominal step's for its in-process replay to compare against.
			keep := func(k int) bool { return k%keepEvery == 0 || (o.traced() && i == 0) }
			samples, after := g.runStep(ctx, next, st, keep)
			next = after
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := summarizeStep(st, samples, d.limitMs)
			parts = append(parts, p)
			fmt.Fprintf(os.Stderr, "tlrbench: %s step %.0f req/s (%d/%d): sent %d of %d, %d failed, %d completed in the step, p50 %.2f ms, p99 %.2f ms, backlog max %d, growing %v\n",
				d.name, p.rate, j+1, n, p.sent, p.planned, p.failed, p.completed, percentile(p.latencies, 0.5), percentile(p.latencies, 0.99), p.backlogMax, p.growing)
			if i == 0 {
				nominal = append(nominal, samples...)
			}
			for _, s := range samples {
				rep.attempted++
				if s.failed {
					rep.failed++
				}
				if s.op%keepEvery == 0 {
					kept = append(kept, s)
				}
			}
		}
		scrapeNow()
		stats = append(stats, mergeSlices(ref, parts))
		factors = append(factors, fs)
	}
	rep.set("peak_rss_mb", srv.peakRSSMB())
	// The server is still catching up after the saturation step; timed
	// beside it, the kernel read a third slower.
	srv.stop()
	srv = nil
	factors = append(factors, []float64{rep.speed.measure()})

	// Each step's timings are scaled by the median of the kernel timings
	// that bracket its slices: the machine's speed can halve within
	// seconds, so the run's median can miss the speed a step ran at.
	scale := func(i int) float64 { return median(append(slices.Clone(factors[i]), factors[i+1][0])) }
	nom := stats[0]
	if ceiling := int(2 * nom.rate); nom.backlogMax > ceiling {
		return nil, fmt.Errorf("nominal step: the generator fell %d requests behind (ceiling %d): the run is invalid", nom.backlogMax, ceiling)
	}
	lats := make([]float64, len(nom.latencies))
	for k, l := range nom.latencies {
		lats[k] = l / scale(0)
	}
	if err := setLatencies(o, lats, rep.setAtReference); err != nil {
		return nil, fmt.Errorf("nominal step: %w", err)
	}
	last := len(stats) - 1
	rep.setAtReference("throughput_ops_s", float64(stats[last].completed)/(o.seconds*ladder[last].share)*scale(last))
	maxOK := 0.0
	for _, ss := range stats {
		if ss.ok(d.limitMs) {
			maxOK = ss.rate
		}
	}
	rep.setAtReference("bench.max_ok_rps", maxOK)
	rep.set("bench.error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.set("bench.samples", float64(len(nom.latencies)))
	rep.set("bench.late_p99_ms", percentile(nom.late, 0.99))
	rep.set("bench.backlog_max", float64(nom.backlogMax))

	if err := d.verify(ctx, kept, rep); err != nil {
		return nil, err
	}
	if o.traced() {
		if err := serveTraced(ctx, o, tr, d, nominal, scrapes, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveTraced derives the per-layer metrics of a serve run: client spans
// for every nominal request (waiting for a connection, then the HTTP
// exchange), the server's own timing from /metrics deltas over the
// nominal step, and the wire, admission, cache and resolve costs from
// replaying the start of the nominal sequence in this process.
func serveTraced(ctx context.Context, o *options, tr *tracer, d *serveDef, nominal []sample, scrapes [][]metrics.Sample, rep *report) error {
	var httpMs []float64
	responses := make(map[int]sample)
	for _, s := range nominal {
		root := span{TraceID: fmt.Sprintf("r%d", s.op), SpanID: tr.next.Add(1), Name: "request", Start: tr.at(s.due), End: tr.at(s.done)}
		tr.add(root)
		tr.add(span{TraceID: root.TraceID, Parent: root.SpanID, Name: "client.queue", Start: root.Start, End: tr.at(s.sent)})
		tr.add(span{TraceID: root.TraceID, Parent: root.SpanID, Name: "http", Start: tr.at(s.sent), End: root.End})
		httpMs = append(httpMs, float64(s.done.Sub(s.sent))/1e6)
		if !s.failed {
			responses[s.op] = s
		}
	}
	before, after := scrapes[0], scrapes[1]
	rep.set("tlrserve.server_ms_p50", 1000*histogramDeltaQuantile(before, after, "tlr_http_request_seconds", d.routes, 0.5))
	rep.set("tlrserve.server_ms_p99", 1000*histogramDeltaQuantile(before, after, "tlr_http_request_seconds", d.routes, 0.99))
	rep.set("tlrserve.client_overhead_ms", sum(httpMs)/float64(max(len(httpMs), 1))-routeMeanMs(before, after, "tlr_http_request_seconds", d.routes))
	for _, k := range []string{"study", "rtm", "analyze"} {
		rep.set("tlrserve.job_ms."+k, jobMeanMs(before, after, k))
	}
	first, last := scrapes[0], scrapes[len(scrapes)-1]
	rep.set("tlrserve.http_429", counterDelta(first, last, "tlr_jobs_shed_total"))
	rep.set("tlrserve.http_5xx", counterDelta(first, last, "tlr_http_requests_total", "code", "5xx"))
	heap := 0.0
	for _, ss := range scrapes {
		heap = max(heap, heapInuseMB(ss))
	}
	rep.set("runtime.heap_peak_mb", heap)

	// The in-process replay runs twice over fresh state, untraced and
	// traced; the difference is the cost of the spans.
	ops := make([]int, 0, len(nominal))
	for _, s := range nominal {
		ops = append(ops, s.op)
	}
	slices.Sort(ops)
	ops = ops[:min(len(ops), replayOps)]
	plain, err := d.replay(ctx, nil, ops, responses, rep)
	if err != nil {
		return err
	}
	traced, err := d.replay(ctx, tr, ops, responses, rep)
	if err != nil {
		return err
	}
	rep.set("bench.trace_overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1))
	L := byLayer(tr.snapshot())
	rep.set("tlr.request_unmarshal_us", L["tlr.unmarshal"].meanSelf()/1e3)
	rep.set("tlr.result_marshal_us", L["marshal"].meanSelf()/1e3)
	rep.set("service.reserve_ns", L["service.reserve"].meanSelf())
	mem, disk := L["service.resolve.mem"], L["service.resolve.disk"]
	rep.set("service.resolve_us_mem", mem.meanSelf()/1e3)
	rep.set("service.resolve_us_disk", disk.meanSelf()/1e3)
	if n := mem.count() + disk.count(); n > 0 {
		rep.set("service.disk_read_ratio", disk.count()/n)
	}
	hit, run := L["service.hit"], L["service.run"]
	if n := hit.count() + run.count(); n > 0 {
		rep.set("service.cache_hit_ratio", hit.count()/n)
	}
	rep.set("service.hit_us", hit.meanSelf()/1e3)
	if sp := L["tracefile.spool"]; sp != nil && sp.bytes > 0 {
		rep.set("tracefile.spool_ms_per_mib", float64(sp.selfNs)/1e6/(float64(sp.bytes)/(1<<20)))
	}
	rep.set("tracefile.filestream_ns_per_rec", L["tracefile.filestream"].nsPer())
	return tr.write(o.traceDir, d.name)
}

// replayOps bounds the in-process replay: enough requests to see every
// kind many times, few enough that two replays take a few seconds.
const replayOps = 400

// uploadTrace posts a trace container and checks the digest the server
// answers with.
func uploadTrace(ctx context.Context, c *http.Client, base string, body []byte, digest string) error {
	status, resp, err := post(ctx, c, base+"/v1/traces", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("upload: %d %s", status, strings.TrimSpace(string(resp)))
	}
	got, err := digestOf(resp)
	if err != nil {
		return err
	}
	if got != digest {
		return fmt.Errorf("upload answered digest %s, the trace is %s", got, digest)
	}
	return nil
}

// checkDigest is the response check shared by both serve workloads:
// writes must answer with the digest computed here.
func checkDigest(rep *report) func(o *op, status int, body []byte) error {
	return func(o *op, status int, body []byte) error {
		if o.digest == "" {
			return nil
		}
		got, err := digestOf(body)
		if err == nil && got != o.digest {
			err = fmt.Errorf("answered digest %s, want %s", got, o.digest)
		}
		if err != nil {
			rep.mismatch("%s: %v", o.kind, err)
		}
		return err
	}
}

// verifyKept recomputes every kept successful response to a run or
// analyze request with the library in this process, over the same
// traces, and compares what was computed.
func verifyKept(ctx context.Context, ops []op, kept []sample, local *tlr.Batcher, rep *report) error {
	for _, s := range kept {
		o := &ops[s.op]
		if s.failed || o.digest != "" {
			continue
		}
		var req tlr.Request
		if err := json.Unmarshal(o.sent(s.fellBack), &req); err != nil {
			return err
		}
		if req.Kind() == "" {
			req.Analyze = &tlr.AnalyzeConfig{}
		}
		res, err := local.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("local run of request %d: %w", s.op, err)
		}
		var got tlr.Result
		if err := json.Unmarshal(s.body, &got); err != nil {
			rep.mismatch("request %d: undecodable response: %v", s.op, err)
			continue
		}
		a, _ := payload(withoutID(got))
		b, _ := payload(withoutID(res))
		if !bytes.Equal(a, b) {
			rep.mismatch("request %d (%s): the server's result differs from the library's", s.op, o.kind)
		}
	}
	return nil
}

func withoutID(r tlr.Result) tlr.Result {
	r.ID = ""
	return r
}

// recordWindows records n consecutive windows of length records of one
// workload's execution from start, each as its own trace: distinct
// traces for the price of executing the program once.
func recordWindows(ctx context.Context, name string, start, length uint64, n int) ([]*tracefile.Trace, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	c := cpu.New(prog)
	if _, err := c.RunContext(ctx, start, nil); err != nil {
		return nil, err
	}
	out := make([]*tracefile.Trace, n)
	for i := range out {
		rec := tracefile.NewRecorder()
		if _, err := c.RunContext(ctx, length, rec.Write); err != nil {
			return nil, err
		}
		out[i] = rec.Trace()
	}
	return out, nil
}

func containerBytes(t *tracefile.Trace) ([]byte, error) {
	var b bytes.Buffer
	_, err := t.WriteTo(&b)
	return b.Bytes(), err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// newRNG is the seeded source every workload draws its inputs from.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0x5eed)) }
