package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tracereuse/tlr/internal/metrics"
)

// The serve workloads' load generator.  It is open-loop: request i of a
// step is due at start + i/rate whatever happened to earlier requests,
// and its latency is timed from that due time, so a stall that delays
// later requests is charged to them too.  internal/loadgen is not used:
// it is closed-loop and times each request from its dispatch, which
// hides exactly that wait (coordinated omission).  All load comes from
// this one process: two sender goroutines sharing at most two HTTP
// connections.

// senders is how many goroutines issue requests, and how many
// connections they share.
const senders = 2

// op is one request of a workload's seeded sequence.
type op struct {
	kind   string // what the request exercises, e.g. "hit", "upload"
	path   string
	body   []byte
	digest string // uploads and ingests: the digest the server must answer with
	// after is the write a query reads (-1: none); when that write did
	// not succeed the query sends fallback instead.
	after    int
	fallback []byte
}

// timerSlack is how late the Go runtime may fire a timer on an idle
// process: it waits for timers in whole milliseconds.
const timerSlack = 2 * time.Millisecond

// sample is one dispatched request.
type sample struct {
	op              int
	due, sent, done time.Time
	// from is when the request's latency starts: its due time, or, when
	// the sender sat idle waiting for that time, when its timer fired, at
	// most timerSlack later.  A timer firing late is the generator's
	// doing; a sender still busy with an earlier request at the due time
	// is the server's, and is charged in full.
	from     time.Time
	status   int
	failed   bool
	backlog  int    // requests due but not yet sent when this one was sent
	fellBack bool   // the query was sent as its fallback
	body     []byte // the response, when the step kept it
}

// sent is the body a request was sent with.
func (o *op) sent(fellBack bool) []byte {
	if fellBack {
		return o.fallback
	}
	return o.body
}

// latencyMs is the request's latency, timed from its due time.
func (s sample) latencyMs() float64 { return float64(s.done.Sub(s.from)) / 1e6 }

// lateMs is how long after its due time the request was sent.
func (s sample) lateMs() float64 { return float64(s.sent.Sub(s.due)) / 1e6 }

// loadgen issues a workload's ops against one server.
type loadgen struct {
	client *http.Client
	base   string
	ops    []op
	done   []chan struct{} // closed when op i has completed or been dropped
	ok     []atomic.Bool   // op i succeeded
	check  func(o *op, status int, body []byte) error
}

func newLoadgen(base string, ops []op, check func(*op, int, []byte) error) *loadgen {
	g := &loadgen{client: newClient(), base: base, ops: ops, check: check,
		done: make([]chan struct{}, len(ops)), ok: make([]atomic.Bool, len(ops))}
	for i := range g.done {
		g.done[i] = make(chan struct{})
	}
	return g
}

// newClient is an HTTP client holding at most `senders` connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// issue sends op i, waiting first for the write it reads.
func (g *loadgen) issue(ctx context.Context, i int) (status int, body []byte, failed, fellBack bool) {
	o := &g.ops[i]
	if o.after >= 0 {
		select {
		case <-g.done[o.after]:
		case <-ctx.Done():
			return 0, nil, true, false
		}
		fellBack = !g.ok[o.after].Load()
	}
	status, body, err := post(ctx, g.client, g.base+o.path, o.sent(fellBack))
	failed = err != nil || status/100 != 2
	if !failed && g.check != nil && g.check(o, status, body) != nil {
		failed = true
	}
	return status, body, failed, fellBack
}

// step is one rung of the rate ladder.
type step struct {
	rate  float64       // requests per second
	dur   time.Duration // requests are due over this long
	grace time.Duration // how long past dur requests may still be sent
}

// runStep issues ops first, first+1, … on the step's schedule from the
// sender goroutines and returns a sample per request sent, plus the
// index of the first op of the next step.  Requests still unsent grace
// after the step's end are dropped: counted as backlog, never sent.
// keep says which responses to retain.
func (g *loadgen) runStep(ctx context.Context, first int, st step, keep func(int) bool) ([]sample, int) {
	n := int(st.rate * st.dur.Seconds())
	if first+n > len(g.ops) {
		n = len(g.ops) - first
	}
	start := time.Now()
	stop := start.Add(st.dur + st.grace)
	var mu sync.Mutex
	next := 0
	var out []sample
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= n {
					return
				}
				i := first + k
				due := start.Add(time.Duration(float64(k) / st.rate * float64(time.Second)))
				from := due
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
					from = minTime(time.Now(), due.Add(timerSlack))
				}
				if ctx.Err() != nil || time.Now().After(stop) {
					close(g.done[i])
					continue
				}
				s := sample{op: i, due: due, from: from, sent: time.Now()}
				s.backlog = int(s.sent.Sub(start).Seconds()*st.rate) - k
				var body []byte
				s.status, body, s.failed, s.fellBack = g.issue(ctx, i)
				s.done = time.Now()
				if keep != nil && keep(i) {
					s.body = body
				}
				g.ok[i].Store(!s.failed)
				close(g.done[i])
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, first + n
}

// growingBacklog reports whether the generator fell further behind over
// a step: the mean backlog over the last quarter of its requests is at
// least twice that over the first quarter, plus two.
func growingBacklog(samples []sample) bool {
	if len(samples) < 8 {
		return false
	}
	ordered := slices.Clone(samples)
	slices.SortFunc(ordered, func(a, b sample) int { return a.due.Compare(b.due) })
	q := len(ordered) / 4
	mean := func(ss []sample) float64 {
		t := 0
		for _, s := range ss {
			t += s.backlog
		}
		return float64(t) / float64(len(ss))
	}
	return mean(ordered[len(ordered)-q:]) >= 2*mean(ordered[:q])+2
}

// stepStats summarises one step.
type stepStats struct {
	rate       float64
	planned    int // requests due in the step
	sent       int
	failed     int
	latencies  []float64 // ms from due; a failed request counts as missing the limit
	late       []float64 // ms from due to send
	backlogMax int
	growing    bool
	completed  int // requests completing within the step
}

func summarizeStep(st step, samples []sample, limitMs float64) stepStats {
	ss := stepStats{rate: st.rate, planned: int(st.rate * st.dur.Seconds()), sent: len(samples), growing: growingBacklog(samples)}
	if len(samples) == 0 {
		return ss
	}
	start := samples[0].due
	for _, s := range samples {
		start = minTime(start, s.due)
	}
	end := start.Add(st.dur)
	for _, s := range samples {
		l := s.latencyMs()
		if s.failed {
			ss.failed++
			l = max(l, limitMs)
		}
		ss.latencies = append(ss.latencies, l)
		ss.late = append(ss.late, s.lateMs())
		ss.backlogMax = max(ss.backlogMax, s.backlog)
		if !s.failed && !s.done.After(end) {
			ss.completed++
		}
	}
	return ss
}

// mergeSlices combines the slices of one ladder step, offered at rate
// requests per second at the reference speed.
func mergeSlices(rate float64, parts []stepStats) stepStats {
	m := stepStats{rate: rate}
	for _, p := range parts {
		m.planned += p.planned
		m.sent += p.sent
		m.failed += p.failed
		m.completed += p.completed
		m.latencies = append(m.latencies, p.latencies...)
		m.late = append(m.late, p.late...)
		m.backlogMax = max(m.backlogMax, p.backlogMax)
		m.growing = m.growing || p.growing
	}
	return m
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// ok reports whether a step met the latency limit at its 99th
// percentile with every planned request sent, none failed, and no
// growing backlog.
func (ss stepStats) ok(limitMs float64) bool {
	if ss.sent < ss.planned || ss.failed > 0 || ss.growing || len(ss.latencies) == 0 {
		return false
	}
	return percentile(ss.latencies, 0.99) <= limitMs
}

// server is a tlrserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	exit chan struct{}
}

// startServer starts bin with GOMAXPROCS=2 and two workers on a free
// local port plus args, and waits until /healthz answers.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no tlrserve binary (set -server)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-workers", "2", "-drain-timeout", "5s"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: lf, exit: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exit)
	}()
	c := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exit:
			lf.Close()
			return nil, fmt.Errorf("tlrserve exited during start-up (log: %s)", logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("tlrserve did not become healthy (log: %s)", logPath)
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// peakRSSMB is the server's peak resident set so far.
func (s *server) peakRSSMB() float64 { return vmHWM(s.cmd.Process.Pid) }

// stop asks the server to drain and exit, killing it if it does not,
// and waits until it has.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exit:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exit
	}
	s.log.Close()
}

// scrape reads the server's metrics exposition.
func scrape(ctx context.Context, c *http.Client, base string) ([]metrics.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return metrics.ParseText(resp.Body)
}

// counterDelta sums the named series matching pairs in after, minus the
// same in before.
func counterDelta(before, after []metrics.Sample, name string, pairs ...string) float64 {
	total := func(ss []metrics.Sample) float64 {
		t := 0.0
		for _, s := range metrics.Find(ss, name, pairs...) {
			t += s.Value
		}
		return t
	}
	return total(after) - total(before)
}

// histogramDeltaQuantile estimates the q-quantile of the observations a
// histogram gained between two scrapes, over every series whose route
// label is in routes.
func histogramDeltaQuantile(before, after []metrics.Sample, name string, routes []string, q float64) float64 {
	cum := map[string]float64{}
	for _, r := range routes {
		for _, s := range metrics.Find(after, name+"_bucket", "route", r) {
			cum[s.Labels["le"]] += s.Value
		}
		for _, s := range metrics.Find(before, name+"_bucket", "route", r) {
			cum[s.Labels["le"]] -= s.Value
		}
	}
	var ss []metrics.Sample
	for le, v := range cum {
		ss = append(ss, metrics.Sample{Name: name + "_bucket", Labels: map[string]string{"le": le}, Value: v})
	}
	return metrics.BucketQuantile(ss, name, q)
}

// routeMeanMs is the mean of the observations a route histogram gained
// between two scrapes, in ms.
func routeMeanMs(before, after []metrics.Sample, name string, routes []string) float64 {
	var sum, count float64
	for _, r := range routes {
		sum += counterDelta(before, after, name+"_sum", "route", r)
		count += counterDelta(before, after, name+"_count", "route", r)
	}
	if count == 0 {
		return 0
	}
	return 1000 * sum / count
}

// jobMeanMs is the mean run time of the jobs of one kind the server ran
// between two scrapes, in ms.
func jobMeanMs(before, after []metrics.Sample, kind string) float64 {
	count := counterDelta(before, after, "tlr_job_duration_seconds_count", "kind", kind)
	if count == 0 {
		return 0
	}
	return 1000 * counterDelta(before, after, "tlr_job_duration_seconds_sum", "kind", kind) / count
}

func heapInuseMB(ss []metrics.Sample) float64 {
	for _, s := range metrics.Find(ss, "go_memstats_heap_inuse_bytes") {
		return s.Value / (1 << 20)
	}
	return 0
}

// digestOf reads the digest an upload or ingest answered with.
func digestOf(body []byte) (string, error) {
	var r struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	return r.Digest, nil
}

// scratchDir makes a fresh directory under the run's workdir.
func scratchDir(o *options, name string) (string, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.workdir, name+"-*")
}

// logPath is where a server's output goes.
func logPath(dir string) string { return filepath.Join(dir, "tlrserve.log") }
