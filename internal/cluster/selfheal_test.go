package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyPeer is a tlrserve stand-in whose availability can be flipped:
// while down, every request (including /healthz) returns 503.  Unlike
// fakePeer it stores replication uploads under their content — these
// tests use the digest string itself as the trace body, so the blob
// map stays digest-keyed without a real digest computation.
type flakyPeer struct {
	ts *httptest.Server

	mu    sync.Mutex
	down  bool
	blobs map[string][]byte
}

func newFlakyPeer(t *testing.T) *flakyPeer {
	t.Helper()
	p := &flakyPeer{blobs: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		b, ok := p.blobs[r.PathValue("digest")]
		p.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("POST /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.blobs[string(b)] = b
		p.mu.Unlock()
	})
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		down := p.down
		p.mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func (p *flakyPeer) setDown(v bool) {
	p.mu.Lock()
	p.down = v
	p.mu.Unlock()
}

func (p *flakyPeer) has(digest string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.blobs[digest]
	return ok
}

func (p *flakyPeer) put(digest string) {
	p.mu.Lock()
	p.blobs[digest] = []byte(digest)
	p.mu.Unlock()
}

// digestAsTrace serves the digest string itself as the trace body,
// pairing with flakyPeer's content-keyed blob map.
func digestAsTrace(digest string, w io.Writer) (bool, error) {
	_, err := io.WriteString(w, digest)
	return true, err
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicationQueueOverflowCountsDrops(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	}))
	t.Cleanup(peer.Close)
	self := "http://self.invalid"
	f := newTestFabric(t, self, []string{self, peer.URL}, func(c *Config) {
		c.QueueDepth = 1
		c.Retries = 1
		c.ReadTrace = func(digest string, w io.Writer) (bool, error) {
			<-release // hold the worker mid-delivery
			return digestAsTrace(digest, w)
		}
	})
	t.Cleanup(func() { close(release) })

	f.Replicate("sha256-d1") // worker dequeues this and blocks in ReadTrace
	waitUntil(t, "worker to pick up first replication", func() bool {
		return f.StatsSnapshot().ReplicationQueue == 0
	})
	f.Replicate("sha256-d2") // fills the depth-1 queue
	f.Replicate("sha256-d3") // must be dropped, not block the upload path
	st := f.StatsSnapshot()
	if st.ReplicationsDropped != 1 {
		t.Fatalf("stats %+v, want exactly one dropped replication", st)
	}
	if st.ReplicationsQueued != 2 {
		t.Fatalf("stats %+v, want two queued replications", st)
	}
}

// TestProbeRecoveryRepairsFailedDelivery: a delivery that fails while
// its peer is down reaches the peer once it answers again, through the
// repair cycle its probe recovery triggers — whether the periodic cycle
// is an hour away or switched off.
func TestProbeRecoveryRepairsFailedDelivery(t *testing.T) {
	for _, every := range []time.Duration{time.Hour, 0} {
		t.Run(fmt.Sprintf("RepairEvery=%v", every), func(t *testing.T) {
			peer := newFlakyPeer(t)
			peer.setDown(true)
			self := "http://self.invalid"
			const digest = "sha256-owed"
			f := newTestFabric(t, self, []string{self, peer.ts.URL}, func(c *Config) {
				c.Retries = 1
				c.ProbeEvery = 5 * time.Millisecond
				c.RepairEvery = every
				c.ReadTrace = digestAsTrace
				c.ListDigests = func() []string { return []string{digest} }
			})
			f.Replicate(digest)
			waitUntil(t, "delivery to fail", func() bool { return f.StatsSnapshot().ReplicationsFailed == 1 })
			waitUnhealthy(t, f)

			peer.setDown(false)
			waitUntil(t, "repair backfill after probe recovery", func() bool {
				return peer.has(digest) && f.StatsSnapshot().RepairBackfills == 1
			})
		})
	}
}

// TestRestartedFabricRepairsFailedDelivery: a failed delivery needs no
// state of its own to survive a restart.  A fresh fabric over the same
// digest set backfills the peer once it recovers.
func TestRestartedFabricRepairsFailedDelivery(t *testing.T) {
	peer := newFlakyPeer(t)
	peer.setDown(true)
	self := "http://self.invalid"
	const digest = "sha256-owed"
	mkFabric := func(probeEvery time.Duration) *Fabric {
		return newTestFabric(t, self, []string{self, peer.ts.URL}, func(c *Config) {
			c.Retries = 1
			c.ProbeEvery = probeEvery
			c.RepairEvery = time.Hour
			c.ReadTrace = digestAsTrace
			c.ListDigests = func() []string { return []string{digest} }
		})
	}
	f1 := mkFabric(0)
	f1.Replicate(digest)
	waitUntil(t, "delivery to fail", func() bool { return f1.StatsSnapshot().ReplicationsFailed == 1 })
	f1.Close()

	f2 := mkFabric(5 * time.Millisecond)
	waitUnhealthy(t, f2)
	peer.setDown(false)
	waitUntil(t, "restarted fabric to backfill the peer", func() bool {
		return peer.has(digest) && f2.StatsSnapshot().RepairBackfills == 1
	})
}

// waitUnhealthy waits until f's probes mark its one other peer
// unhealthy, so that the peer's recovery is one the probe notices.
func waitUnhealthy(t *testing.T, f *Fabric) {
	t.Helper()
	waitUntil(t, "peer to be marked unhealthy", func() bool { return !f.Health()[0].Healthy })
}

func TestBreakerShedsFastAndHalfOpensAfterCooldown(t *testing.T) {
	peer := newFlakyPeer(t)
	peer.setDown(true)
	self := "http://self.invalid"
	f := newTestFabric(t, self, []string{self, peer.ts.URL}, func(c *Config) {
		c.Retries = 1
		c.BreakerCooldown = 200 * time.Millisecond
		c.ReadTrace = digestAsTrace
	})

	const digest = "sha256-x"
	for i := 0; i < failuresBeforeUnhealthy; i++ {
		if err := f.replicateTo(digest, peer.ts.URL); err == nil {
			t.Fatal("replication to a down peer succeeded")
		}
	}
	st := f.StatsSnapshot()
	if st.BreakerOpens != 1 || st.BreakerOpen != 1 {
		t.Fatalf("stats %+v, want the breaker open after %d failures", st, failuresBeforeUnhealthy)
	}

	// While open, calls shed immediately instead of dialing the peer.
	start := time.Now()
	err := f.replicateTo(digest, peer.ts.URL)
	if err == nil || !strings.Contains(err.Error(), "breaker open") {
		t.Fatalf("open-breaker replication returned %v, want a shed error", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shed call took %v, want immediate", d)
	}
	if _, err := f.hasTraceOn(peer.ts.URL, digest); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("open-breaker has-trace check returned %v, want breaker-open", err)
	}
	if st := f.StatsSnapshot(); st.BreakerShed < 2 {
		t.Fatalf("stats %+v, want at least two shed calls counted", st)
	}
	if _, ok := f.ForwardTarget(digest); ok {
		t.Fatal("ForwardTarget offered an unhealthy peer")
	}

	// After the cooldown a half-open trial goes through, and a healthy
	// peer closes the breaker again.
	peer.setDown(false)
	time.Sleep(250 * time.Millisecond)
	if err := f.replicateTo(digest, peer.ts.URL); err != nil {
		t.Fatalf("half-open trial to a recovered peer failed: %v", err)
	}
	if !peer.has(digest) {
		t.Fatal("recovered peer did not receive the trace")
	}
	if target, ok := f.ForwardTarget(digest); !ok || target != peer.ts.URL {
		t.Fatalf("ForwardTarget after recovery = %q, %v; want the peer, true", target, ok)
	}
}

func TestRepairCycleBackfillsMissingOwners(t *testing.T) {
	holder, empty := newFlakyPeer(t), newFlakyPeer(t)
	self := "http://self.invalid"
	const digest = "sha256-under-replicated"
	holder.put(digest)
	f := newTestFabric(t, self, []string{self, holder.ts.URL, empty.ts.URL}, func(c *Config) {
		c.Replication = 3 // every node owns every digest: deterministic placement
		c.ReadTrace = digestAsTrace
		c.ListDigests = func() []string { return []string{digest} }
	})

	rep := f.RepairCycle()
	if rep.Digests != 1 || rep.Checked != 2 || rep.Backfilled != 1 || rep.Failed != 0 {
		t.Fatalf("repair report %+v, want 1 digest, 2 checks, 1 backfill, 0 failures", rep)
	}
	if !empty.has(digest) {
		t.Fatal("repair did not backfill the missing owner")
	}
	st := f.StatsSnapshot()
	if st.RepairCycles != 1 || st.RepairBackfills != 1 || st.RepairChecks != 2 {
		t.Fatalf("stats %+v, want one cycle, two checks, one backfill", st)
	}

	// A second cycle finds everything in place and changes nothing.
	rep = f.RepairCycle()
	if rep.Backfilled != 0 || rep.Failed != 0 {
		t.Fatalf("second repair report %+v, want a no-op", rep)
	}
}

func TestRepairCycleCountsUnreachableOwnerAsFailure(t *testing.T) {
	down := newFlakyPeer(t)
	down.setDown(true)
	self := "http://self.invalid"
	const digest = "sha256-x"
	f := newTestFabric(t, self, []string{self, down.ts.URL}, func(c *Config) {
		c.Retries = 1
		c.ReadTrace = digestAsTrace
		c.ListDigests = func() []string { return []string{digest} }
	})
	rep := f.RepairCycle()
	if rep.Failed == 0 {
		t.Fatalf("repair report %+v, want the unreachable owner counted as failed", rep)
	}
	if f.StatsSnapshot().RepairFailures == 0 {
		t.Fatal("RepairFailures not counted")
	}
}

func TestDrainWaitsForReplicationQueue(t *testing.T) {
	var mu sync.Mutex
	received := 0
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		received++
		mu.Unlock()
	}))
	t.Cleanup(peer.Close)
	self := "http://self.invalid"
	f := newTestFabric(t, self, []string{self, peer.URL}, func(c *Config) {
		c.ReadTrace = digestAsTrace
	})
	for i := 0; i < 3; i++ {
		f.Replicate(fmt.Sprintf("sha256-d%d", i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	mu.Lock()
	got := received
	mu.Unlock()
	if got != 3 {
		t.Fatalf("drain returned with %d/3 replications delivered", got)
	}
	if st := f.StatsSnapshot(); st.ReplicationsDone != 3 || st.ReplicationQueue != 0 {
		t.Fatalf("stats %+v after drain, want 3 done and an empty queue", st)
	}
}

func TestDrainTimesOutOnStuckDelivery(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(release) })
	self := "http://self.invalid"
	f := newTestFabric(t, self, []string{self, peer.URL}, func(c *Config) {
		c.Retries = 1
		c.ReadTrace = digestAsTrace
	})
	f.Replicate("sha256-stuck")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck queue reported success")
	}
}

func TestInjectorDropStatusAndPartition(t *testing.T) {
	var hits int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		fmt.Fprint(w, "hello world")
	}))
	t.Cleanup(ts.Close)
	inj := NewInjector(nil)
	client := &http.Client{Transport: inj}

	rule := inj.Add(&InjectRule{Drop: true})
	if _, err := client.Get(ts.URL); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("dropped request returned %v, want ErrInjectedDrop", err)
	}
	inj.Remove(rule)

	inj.Add(&InjectRule{Status: http.StatusServiceUnavailable, Remaining: 1})
	resp, err := client.Get(ts.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status rule gave %v %v, want a synthetic 503", resp, err)
	}
	resp.Body.Close()
	mu.Lock()
	if hits != 0 {
		t.Fatalf("server saw %d requests through drop/status rules, want 0", hits)
	}
	mu.Unlock()

	// The Remaining budget is spent: the next request passes through.
	resp, err = client.Get(ts.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("spent rule still firing: %v %v", resp, err)
	}
	resp.Body.Close()

	// Directional partition: requests to this host fail until healed.
	inj.Partition(ts.Listener.Addr().String())
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("partitioned request succeeded")
	}
	inj.Heal()
	resp, err = client.Get(ts.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healed request failed: %v %v", resp, err)
	}
	resp.Body.Close()
	if inj.Injected() < 3 {
		t.Fatalf("injected count %d, want at least 3", inj.Injected())
	}
}

func TestInjectorBodyFaultsAndDelay(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello world")
	}))
	t.Cleanup(ts.Close)
	inj := NewInjector(nil)
	client := &http.Client{Transport: inj}

	rule := inj.Add(&InjectRule{TruncateBody: 5})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != "hello" {
		t.Fatalf("truncated body %q, want %q", got, "hello")
	}
	inj.Remove(rule)

	rule = inj.Add(&InjectRule{CorruptBody: true})
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) == "hello world" || len(got) != len("hello world") {
		t.Fatalf("corrupt body %q, want same length but different bytes", got)
	}
	inj.Remove(rule)

	inj.Add(&InjectRule{Delay: 50 * time.Millisecond})
	start := time.Now()
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delayed request took %v, want >= 50ms", d)
	}
}
