// Package loadgen drives a live tlrserve with a mixed, reproducible
// workload and measures what the server does under sustained traffic.
//
// A run records per-kind client-side latencies (run, replay, analyze,
// upload) and periodically scrapes the server's /metrics exposition,
// so the report carries both views: what clients experienced
// (throughput, p50/p95/p99) and what the process did (goroutine and
// heap ceilings, 5xx count).  The generator is closed-loop by default
// — each worker issues its next request as soon as the previous one
// completes — and open-loop when Rate is set, with a global pacer
// feeding workers so a slow server builds visible queueing delay
// instead of silently throttling offered load.  In open loop every
// request is timed from the moment the schedule said it was due, not
// from when a worker got to send it, so a server stall shows in the
// tail of every request it delayed (no coordinated omission).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tracereuse/tlr"
)

// Mix weights the request kinds.  Zero-valued kinds are never issued;
// an all-zero Mix is rejected by Run.
type Mix struct {
	Run     int `json:"run"`     // POST /v1/run executing a workload program
	Replay  int `json:"replay"`  // POST /v1/run replaying an uploaded trace
	Analyze int `json:"analyze"` // POST /v1/analyze over an uploaded trace
	Upload  int `json:"upload"`  // POST /v1/traces re-uploading a recording
}

// DefaultMix mirrors the expected production shape: mostly simulation
// runs, a steady trickle of replay and analysis over stored traces,
// occasional uploads.
var DefaultMix = Mix{Run: 6, Replay: 2, Analyze: 1, Upload: 1}

func (m Mix) total() int { return m.Run + m.Replay + m.Analyze + m.Upload }

// pick draws a kind from the mix.
func (m Mix) pick(r *rand.Rand) string {
	n := r.Intn(m.total())
	if n < m.Run {
		return "run"
	}
	n -= m.Run
	if n < m.Replay {
		return "replay"
	}
	n -= m.Replay
	if n < m.Analyze {
		return "analyze"
	}
	return "upload"
}

// Config parameterises one load run.
type Config struct {
	// Server is the base URL of a running tlrserve (no trailing slash).
	Server string
	// Duration bounds the measurement window.
	Duration time.Duration
	// Workers is the number of concurrent client loops (default 4).
	Workers int
	// Rate, when positive, switches to open-loop mode: requests are
	// offered at this aggregate rate (per second) regardless of how
	// fast the server answers.  Zero means closed-loop.
	Rate float64
	// Mix weights the request kinds (default DefaultMix).
	Mix Mix
	// Distinct is the number of distinct request variants per kind
	// (default 8).  Repeats of a variant exercise the server's result
	// cache; more variants mean more fresh simulation.
	Distinct int
	// Workload names the built-in benchmark backing every request
	// (default "li").
	Workload string
	// Budget is the base instruction budget per simulation (default
	// 20000); variants spread around it.
	Budget uint64
	// Seed makes the request sequence reproducible (default 1).
	Seed int64
	// ScrapeInterval is how often /metrics is sampled during the run
	// (default 1s, clamped to Duration/2).
	ScrapeInterval time.Duration
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Server == "" {
		return fmt.Errorf("loadgen: Server is required")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be positive")
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix
	}
	if c.Mix.total() <= 0 {
		return fmt.Errorf("loadgen: mix has no positive weights")
	}
	if c.Distinct <= 0 {
		c.Distinct = 8
	}
	if c.Workload == "" {
		c.Workload = "li"
	}
	if c.Budget == 0 {
		c.Budget = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = time.Second
	}
	if half := c.Duration / 2; c.ScrapeInterval > half && half > 0 {
		c.ScrapeInterval = half
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// sample is one completed request as a worker saw it.
type sample struct {
	kind string
	dur  time.Duration
	err  bool
}

// Run drives the configured server for cfg.Duration and returns the
// measured report.  The context cancels the run early; the report then
// covers whatever completed.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := ping(ctx, cfg); err != nil {
		return nil, err
	}
	traces, digests, err := prepareTraces(cfg)
	if err != nil {
		return nil, err
	}
	if err := uploadAll(ctx, cfg, traces); err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Open-loop pacer: a buffered channel of tokens, one per request the
	// schedule offers at cfg.Rate, each carrying the time it fell due.
	// The deep buffer keeps the offered schedule intact through short
	// server stalls, and timing each request from its due time puts the
	// queueing delay into client latency.  A tick that finds the buffer
	// full is a request the schedule offered and the run could not even
	// queue: it is counted and reported, not issued.
	var pace chan time.Time
	var dropped atomic.Uint64
	if cfg.Rate > 0 {
		pace = make(chan time.Time, 4*cfg.Workers+int(cfg.Rate))
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		go func() {
			due := time.Now()
			timer := time.NewTimer(0)
			defer timer.Stop()
			for {
				due = due.Add(interval)
				timer.Reset(time.Until(due))
				select {
				case <-runCtx.Done():
					return
				case <-timer.C:
				}
				select {
				case pace <- due:
				default:
					dropped.Add(1)
				}
			}
		}()
	}

	scr := newScraper(cfg)
	scr.start(runCtx)

	var wg sync.WaitGroup
	perWorker := make([][]sample, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var out []sample
			for {
				t0 := time.Now()
				if pace != nil {
					select {
					case <-runCtx.Done():
						perWorker[w] = out
						return
					case t0 = <-pace:
					}
				} else if runCtx.Err() != nil {
					perWorker[w] = out
					return
				}
				kind := cfg.Mix.pick(rng)
				variant := rng.Intn(cfg.Distinct)
				err := issue(runCtx, cfg, kind, variant, traces, digests)
				dur := time.Since(t0)
				if runCtx.Err() != nil && err != nil {
					// The deadline tore the request down mid-flight;
					// not a server failure.
					perWorker[w] = out
					return
				}
				out = append(out, sample{kind: kind, dur: dur, err: err != nil})
				if err != nil {
					cfg.Logf("loadgen: %s variant %d: %v", kind, variant, err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	scr.stop()

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	rep := buildReport(cfg, elapsed, all)
	rep.TicksDropped = dropped.Load()
	if rep.TicksDropped > 0 {
		cfg.Logf("loadgen: %d scheduled requests dropped: the backlog of due requests was full", rep.TicksDropped)
	}
	rep.Scrape = scr.report()
	return rep, nil
}

func ping(ctx context.Context, cfg Config) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Server+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: server unreachable: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: %s/healthz: status %d", cfg.Server, resp.StatusCode)
	}
	return nil
}

// prepareTraces records the trace variants backing replay, analyze and
// upload requests.  Each variant skips a different prefix so the
// digests differ; recording happens in-process (the generator embeds
// the simulator) so the server under test does none of this work.
func prepareTraces(cfg Config) ([][]byte, []string, error) {
	n := cfg.Distinct
	if n > 4 {
		n = 4 // recordings are only needed for digest diversity
	}
	bodies := make([][]byte, n)
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		rec, err := tlr.Record(context.Background(), tlr.RecordSpec{
			Workload: cfg.Workload,
			Skip:     uint64(i) * 64,
			Budget:   cfg.Budget,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("loadgen: record %s variant %d: %w", cfg.Workload, i, err)
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			return nil, nil, err
		}
		bodies[i] = buf.Bytes()
		digests[i] = rec.Digest()
	}
	return bodies, digests, nil
}

// uploadAll seeds the server with every trace variant before the
// measured window opens, so replay and analyze requests always name a
// digest the server holds.
func uploadAll(ctx context.Context, cfg Config, traces [][]byte) error {
	for i, body := range traces {
		status, err := post(ctx, cfg, "/v1/traces", "application/octet-stream", body)
		if err != nil {
			return fmt.Errorf("loadgen: seed upload %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("loadgen: seed upload %d: status %d", i, status)
		}
	}
	return nil
}

// issue performs one request of the given kind and variant.  A
// transport error or non-2xx status is an error; response bodies are
// drained so connections are reused.
func issue(ctx context.Context, cfg Config, kind string, variant int, traces [][]byte, digests []string) error {
	var (
		path        string
		contentType = "application/json"
		body        []byte
	)
	switch kind {
	case "run":
		// Distinct budgets yield distinct result-cache keys; repeats of
		// a variant are cache hits, matching the record-once
		// analyse-many usage the paper's workflow implies.
		path = "/v1/run"
		body = jsonBody(map[string]any{
			"workload": cfg.Workload,
			"study":    map[string]any{"budget": cfg.Budget + uint64(variant)*512, "window": 256},
		})
	case "replay":
		path = "/v1/run"
		body = jsonBody(map[string]any{
			"trace": map[string]any{"digest": digests[variant%len(digests)]},
			"study": map[string]any{"budget": cfg.Budget, "window": 128 + variant},
		})
	case "analyze":
		path = "/v1/analyze"
		body = jsonBody(map[string]any{
			"trace": map[string]any{"digest": digests[variant%len(digests)]},
		})
	case "upload":
		path = "/v1/traces"
		contentType = "application/octet-stream"
		body = traces[variant%len(traces)]
	default:
		return fmt.Errorf("loadgen: unknown kind %q", kind)
	}
	status, err := post(ctx, cfg, path, contentType, body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s: status %d", path, status)
	}
	return nil
}

func post(ctx context.Context, cfg Config, path, contentType string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Server+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all inputs are map[string]any of plain values
	}
	return b
}

// buildReport folds the samples into the per-kind summaries.
func buildReport(cfg Config, elapsed time.Duration, all []sample) *Report {
	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	rep := &Report{
		Server:   cfg.Server,
		Mode:     mode,
		Workers:  cfg.Workers,
		Seconds:  elapsed.Seconds(),
		Workload: cfg.Workload,
		Kinds:    map[string]KindReport{},
	}
	byKind := map[string][]time.Duration{}
	for _, s := range all {
		rep.Requests++
		if s.err {
			rep.Errors++
		}
		k := rep.Kinds[s.kind]
		k.Requests++
		if s.err {
			k.Errors++
		}
		rep.Kinds[s.kind] = k
		byKind[s.kind] = append(byKind[s.kind], s.dur)
	}
	if rep.Seconds > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / rep.Seconds
	}
	for kind, durs := range byKind {
		k := rep.Kinds[kind]
		k.fillLatencies(durs)
		rep.Kinds[kind] = k
	}
	return rep
}

// fillLatencies computes the latency summary over one kind's samples.
func (k *KindReport) fillLatencies(durs []time.Duration) {
	if len(durs) == 0 {
		return
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	k.MeanMs = ms(sum / time.Duration(len(durs)))
	k.P50Ms = ms(percentile(durs, 0.50))
	k.P95Ms = ms(percentile(durs, 0.95))
	k.P99Ms = ms(percentile(durs, 0.99))
	k.MaxMs = ms(durs[len(durs)-1])
}

// percentile reads the nearest-rank percentile from sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
