package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tracereuse/tlr/internal/expt"
	"github.com/tracereuse/tlr/internal/service"
)

var update = flag.Bool("update", false, "rewrite the small grid's line of the sweep-live golden hash")

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{SpanID: 1, Name: "cell", Start: 0, End: 100},
		{SpanID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{SpanID: 3, Parent: 1, Name: "engine", Start: 20, End: 50},   // overlaps decode: counted once
		{SpanID: 4, Parent: 1, Name: "marshal", Start: 90, End: 120}, // clipped to the parent
		{SpanID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (40 + 10), 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	ms := func(ss []span) []span { // the same spans in tenths of a second
		out := append([]span(nil), ss...)
		for i := range out {
			out[i].Start *= 1e8
			out[i].End *= 1e8
		}
		return out
	}
	if err := checkCoverage(ms(spans), "cell", 0.05); err == nil {
		t.Fatal("a cell half covered by its children passed the coverage check")
	}
	if err := checkCoverage(ms(spans), "cell", 0.5); err != nil {
		t.Fatalf("coverage 50%% against a 50%% allowance: %v", err)
	}
	many := spans
	for i := int64(1); i <= 99; i++ { // 99 fully covered cells beside the half-covered one
		many = append(many, span{SpanID: 100 + 2*i, Name: "cell", Start: 0, End: 100},
			span{SpanID: 101 + 2*i, Parent: 100 + 2*i, Name: "decode", Start: 0, End: 100})
	}
	if err := checkCoverage(many, "cell", 0.05); err != nil {
		t.Fatalf("one 50 ns gap among fully covered cells failed the check: %v", err)
	}
	if err := checkCoverage(spans, "cell", 0.05); err == nil {
		t.Fatal("cells half covered in total passed the check")
	}
}

func TestNearestRankPercentileAndTheTenBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1: order must not matter
	}
	if p := percentile(xs, 0.5); p != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p)
	}
	if p, ok := tailPercentile(xs, 0.99); p != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990 with ten beyond", p, ok)
	}
	if _, ok := tailPercentile(xs[:999], 0.99); ok {
		t.Error("999 samples leave nine beyond the p99 but passed the rule")
	}
	if p := percentile([]float64{7}, 0.99); p != 7 {
		t.Errorf("p99 of one sample = %v", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if r := relIQR([]float64{10, 10, 10}); r != 0 {
		t.Errorf("spread of equal samples = %v", r)
	}
}

// TestLatencyIsTimedFromTheDueTime stalls the whole server for 200 ms
// under one request: the requests that fell due during the stall must
// carry the stall in their latency, though each is served quickly once
// it is sent.
func TestLatencyIsTimedFromTheDueTime(t *testing.T) {
	var mu sync.Mutex
	stalled := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			mu.Lock()
			stalled <- time.Now()
			time.Sleep(200 * time.Millisecond)
			mu.Unlock()
			return
		}
		mu.Lock()
		mu.Unlock()
	}))
	defer srv.Close()
	ops := make([]op, 100)
	for i := range ops {
		ops[i] = op{kind: "fast", path: "/fast", after: -1}
	}
	ops[20].path = "/stall"
	g := newLoadgen(srv.URL, ops, nil)
	samples, _ := g.runStep(context.Background(), 0, step{rate: 100, dur: time.Second, grace: time.Second}, nil)
	if len(samples) != len(ops) {
		t.Fatalf("sent %d of %d requests", len(samples), len(ops))
	}
	stallStart := <-stalled
	stallEnd := stallStart.Add(200 * time.Millisecond)
	absorbed := 0
	for _, s := range samples {
		if s.op == 20 || s.due.Before(stallStart) || !s.due.Before(stallEnd.Add(-20*time.Millisecond)) {
			continue
		}
		got := time.Duration(s.latencyMs() * float64(time.Millisecond))
		if floor := stallEnd.Sub(s.due) - 5*time.Millisecond; got < floor {
			t.Errorf("request %d due %v into the stall took %v, less than the %v left of it",
				s.op, s.due.Sub(stallStart), got, floor)
		}
		absorbed++
	}
	if absorbed < 10 {
		t.Fatalf("only %d requests fell due during the stall", absorbed)
	}
	if p99 := percentile(summarizeStep(step{rate: 100, dur: time.Second}, samples, 100).latencies, 0.99); p99 < 150 {
		t.Errorf("p99 %v ms hides the stall", p99)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]sample, 200)
	ramp := make([]sample, 200)
	t0 := time.Now()
	for i := range flat {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		flat[i] = sample{due: due, backlog: i % 3}
		ramp[i] = sample{due: due, backlog: i / 4}
	}
	if growingBacklog(flat) {
		t.Error("a backlog that stays between 0 and 2 was judged growing")
	}
	if !growingBacklog(ramp) {
		t.Error("a backlog rising steadily to 50 was not judged growing")
	}
}

func TestCompareRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		higher bool
		want   verdict
	}{
		{"same runs", parent, false, unchanged},
		{"small noise", shift(parent, 0.5), false, unchanged},
		{"10% faster", shift(parent, -10), false, improved},
		{"10% faster, higher is better", shift(parent, -10), true, worse},
		{"10% slower", shift(parent, 10), false, worse},
		{"wins 8 of 10", []float64{95, 95, 95, 95, 95, 95, 95, 95, 101, 101}, false, unchanged},
		{"spread beyond the bound", []float64{70, 130, 70, 130, 70, 130, 70, 130, 70, 130}, false, unresolved},
		{"spread beyond the bound, every run better", []float64{50, 80, 50, 80, 50, 80, 50, 80, 50, 80}, false, improved},
	}
	for _, c := range cases {
		if got := judge(parent, c.change, c.higher, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestGoldenMismatchFailsTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.sha256")
	o := &options{golden: path, update: true}
	if err := checkGolden(o, "grid-a", []byte("result"), newReport()); err != nil {
		t.Fatal(err)
	}
	o.update = false
	if rep := newReport(); checkGolden(o, "grid-a", []byte("result"), rep) != nil || !rep.correct {
		t.Fatalf("the hash just written does not match: %v", rep.problems)
	}
	rep := newReport()
	if err := checkGolden(o, "grid-a", []byte("other result"), rep); err != nil {
		t.Fatal(err)
	}
	if rep.correct {
		t.Fatal("a result differing from the golden hash passed")
	}
	if rep := newReport(); checkGolden(o, "grid-b", []byte("result"), rep) != nil || rep.correct {
		t.Fatal("a grid with no golden hash passed")
	}
}

// TestFigure9MatchesExpt pins the benchmark's seed-shuffled Figure-9 grid
// to expt.MeasureRTMWith, the harness it stands in for.
func TestFigure9MatchesExpt(t *testing.T) {
	cfg := sweepConfig(true)
	progs, err := assembleSuite()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Workers: 2})
	defer svc.Close()
	grid := figure9(cfg, progs)
	got, _, _, err := runFigure9(context.Background(), svc, cfg, grid, newRNG(3).Perm(len(grid)))
	if err != nil {
		t.Fatal(err)
	}
	ref := service.New(service.Options{Workers: 2})
	defer ref.Close()
	want, err := expt.MeasureRTMWith(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the benchmark's Figure-9 grid differs from expt.MeasureRTMWith")
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each run is correct and reports every metric
// BENCHMARK.json declares, with its unit.
func TestSmoke(t *testing.T) {
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) || !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json and the metric tables in main.go disagree")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "tlrserve")
	if out, err := exec.Command("go", "build", "-o", server, "github.com/tracereuse/tlr/cmd/tlrserve").CombinedOutput(); err != nil {
		t.Fatalf("building tlrserve: %v\n%s", err, out)
	}
	golden, err := filepath.Abs("../testdata/sweep-live.sha256")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := &options{seed: 1, seconds: 1, server: server, workdir: filepath.Join(dir, "work"),
				golden: golden, update: *update, small: true}
			if traced {
				o.traceDir = filepath.Join(dir, "spans")
			}
			start := time.Now()
			rep, err := workloadFuncs[name](context.Background(), o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			res, err := rep.emit(traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, rep.problems)
			}
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(o.traceDir, name+".spans.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			t.Logf("%s (traced %v): %v", name, traced, time.Since(start).Round(time.Millisecond))
		}
	}
}

func TestSpanFileRoundTrips(t *testing.T) {
	tr := newTracer()
	root := tr.begin("c1", "cell")
	sp := root.child("decode")
	sp.endRecords(42)
	root.end()
	dir := t.TempDir()
	if err := tr.write(dir, "w"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "w.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Name != "decode" || got[0].Parent != got[1].SpanID || got[0].Attrs.Records != 42 {
		t.Fatalf("spans read back: %+v", got)
	}
	if math.IsNaN(byLayer(got)["decode"].nsPer()) {
		t.Fatal("ns per record of a counted span is NaN")
	}
}
