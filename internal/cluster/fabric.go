package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/tracereuse/tlr/internal/metrics"
)

// Headers the fabric uses to keep node-to-node traffic from echoing
// around the cluster.  Exported so cmd/tlrserve can gate on them.
const (
	// HeaderReplication marks a trace upload as replica placement:
	// the receiving node stores it but must not replicate it onward.
	HeaderReplication = "X-Tlr-Replication"
	// HeaderForwarded marks a run request as already forwarded once:
	// the receiving node must execute it locally, never re-forward.
	HeaderForwarded = "X-Tlr-Forwarded"
	// HeaderPeer carries the requesting node's self URL on
	// peer-to-peer fetches, for the receiving node's logs.
	HeaderPeer = "X-Tlr-Peer"
)

// failuresBeforeUnhealthy is how many consecutive request or probe
// failures mark a peer unhealthy and open its circuit breaker.
// Unhealthy peers are skipped as forwarding targets and tried last on
// fetches; while the breaker is open, replication and repair calls to
// the peer are shed immediately instead of burning their retry budget.
// The breaker half-opens (admits one trial call) every BreakerCooldown,
// and any success closes it.  The background probe ignores the breaker
// entirely, so probe recovery is what closes it in practice.
const failuresBeforeUnhealthy = 3

// Per-operation deadlines.  Each fabric call runs under its own
// bounded context rather than one coarse client timeout, so a slow
// peer can delay only the operation that touched it.
const (
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// statusTimeout bounds one HasTrace (HEAD) existence check during
	// repair.
	statusTimeout = 5 * time.Second
	// fetchTimeout bounds one peer trace fetch including reading the
	// body.
	fetchTimeout = 60 * time.Second
	// replicateTimeout bounds one replication delivery attempt.
	replicateTimeout = 60 * time.Second
	// forwardTimeout caps one forwarded run (tighter caller contexts
	// still apply).
	forwardTimeout = 120 * time.Second
)

// Config configures a node's view of the fabric.
type Config struct {
	// Self is this node's own base URL.  It must appear in Peers.
	Self string
	// Peers is the full static peer set, self included.
	Peers []string
	// Replication is how many distinct peers own each digest.
	// Defaults to 2, clamped to the peer count.
	Replication int
	// Client performs all peer HTTP requests.  Defaults to a plain
	// client; every fabric operation carries its own context deadline
	// (the per-operation timeouts above), so no coarse Client.Timeout
	// is set.
	Client *http.Client
	// Retries is the attempt budget for one replication delivery.
	// Defaults to 3.
	Retries int
	// Backoff is the initial delay between replication attempts,
	// doubling per retry.  Defaults to 200ms.
	Backoff time.Duration
	// QueueDepth bounds the async replication queue; enqueues beyond
	// it are dropped (and counted).  Defaults to 256.
	QueueDepth int
	// ProbeEvery is the health-probe interval (GET /healthz on every
	// other peer).  Defaults to 10s; zero or negative disables the
	// probe loop (request outcomes still update health).  A probe
	// that finds an unhealthy peer answering again wakes the repair
	// loop for one immediate cycle, which backfills whatever the peer
	// missed while it was down.
	ProbeEvery time.Duration

	// BreakerCooldown is how long an open per-peer breaker waits
	// before admitting one half-open trial call.  Defaults to 5s.
	BreakerCooldown time.Duration

	// RepairEvery sets the anti-entropy repair interval: every
	// interval the node scans ListDigests, asks each digest's other
	// owners whether they hold it, and backfills the ones that don't.
	// Zero or negative disables the periodic cycle; probe recovery
	// still triggers one, and RepairCycle can be called directly.
	RepairEvery time.Duration
	// ListDigests returns the digests held locally (memory + disk
	// tiers).  Required for repair; nil disables it.
	ListDigests func() []string

	// ReadTrace streams the locally stored trace for digest to w in
	// download (v4) format, reporting whether the digest was held.
	// It is the replication worker's data source.
	ReadTrace func(digest string, w io.Writer) (bool, error)
	// Logf receives diagnostic messages.  Defaults to discarding.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the fabric's instruments
	// (queue/breaker gauges, replication and repair counters, peer-call
	// latency histograms).  Counters are Func-backed views over the
	// same Stats fields StatsSnapshot serves.  Defaults to a private
	// registry so the instruments always exist.
	Registry *metrics.Registry
}

// PeerHealth is one peer's liveness snapshot.
type PeerHealth struct {
	Peer                string    `json:"peer"`
	LastProbe           time.Time `json:"lastProbe,omitzero"`
	LastOK              time.Time `json:"lastOK,omitzero"`
	ConsecutiveFailures int       `json:"consecutiveFailures"`
	Healthy             bool      `json:"healthy"`
	BreakerOpen         bool      `json:"breakerOpen"`
}

// Stats counts fabric activity since startup.
type Stats struct {
	FetchAttempts       uint64 `json:"fetchAttempts"`
	FetchHits           uint64 `json:"fetchHits"`
	FetchMisses         uint64 `json:"fetchMisses"`
	FetchErrors         uint64 `json:"fetchErrors"`
	Forwards            uint64 `json:"forwards"`
	ReplicationsQueued  uint64 `json:"replicationsQueued"`
	ReplicationsDone    uint64 `json:"replicationsDone"`
	ReplicationsFailed  uint64 `json:"replicationsFailed"`
	ReplicationsDropped uint64 `json:"replicationsDropped"`
	ReplicationQueue    int    `json:"replicationQueue"`
	RepairCycles        uint64 `json:"repairCycles"`
	RepairChecks        uint64 `json:"repairChecks"`
	RepairBackfills     uint64 `json:"repairBackfills"`
	RepairFailures      uint64 `json:"repairFailures"`
	BreakerOpens        uint64 `json:"breakerOpens"`
	BreakerShed         uint64 `json:"breakerShed"`
	BreakerOpen         int    `json:"breakerOpen"`
}

type peerState struct {
	lastProbe time.Time
	lastOK    time.Time
	consec    int
	// openedAt is when consec crossed the unhealthy threshold;
	// lastTrial is the most recent half-open trial granted.  The
	// breaker admits one call per BreakerCooldown past the later of
	// the two.
	openedAt  time.Time
	lastTrial time.Time
}

// Fabric is one node's handle on the cluster: placement queries,
// peer fetch, async replication, run forwarding, repair, and health.
// All methods are safe for concurrent use.
type Fabric struct {
	ring        *Ring
	self        string
	replication int
	client      *http.Client
	retries     int
	backoff     time.Duration
	readTrace   func(string, io.Writer) (bool, error)
	listDigests func() []string
	logf        func(string, ...any)

	breakerCooldown time.Duration

	mu    sync.Mutex
	peers map[string]*peerState
	stats Stats

	repairMu  sync.Mutex    // serializes repair cycles
	repairNow chan struct{} // 1-buffered: probe recovery wakes the repair loop

	fetchDur *metrics.Histogram // peer fetch call latency
	replDur  *metrics.Histogram // replication delivery latency

	queue  chan string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates cfg, starts the replication worker and (if enabled)
// the health-probe and repair loops, and returns the fabric.  Close
// releases all of them.
func New(cfg Config) (*Fabric, error) {
	ring, err := NewRing(cfg.Peers)
	if err != nil {
		return nil, err
	}
	selfOK := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			selfOK = true
		}
	}
	if !selfOK {
		return nil, fmt.Errorf("cluster: self %q not in peer set %v", cfg.Self, cfg.Peers)
	}
	if cfg.ReadTrace == nil {
		return nil, fmt.Errorf("cluster: Config.ReadTrace is required")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Peers) {
		cfg.Replication = len(cfg.Peers)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fabric{
		ring:            ring,
		self:            cfg.Self,
		replication:     cfg.Replication,
		client:          cfg.Client,
		retries:         cfg.Retries,
		backoff:         cfg.Backoff,
		readTrace:       cfg.ReadTrace,
		listDigests:     cfg.ListDigests,
		logf:            cfg.Logf,
		breakerCooldown: cfg.BreakerCooldown,
		peers:           make(map[string]*peerState, len(cfg.Peers)),
		repairNow:       make(chan struct{}, 1),
		queue:           make(chan string, cfg.QueueDepth),
		ctx:             ctx,
		cancel:          cancel,
	}
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			f.peers[p] = &peerState{}
		}
	}
	f.registerMetrics(cfg.Registry)
	f.wg.Add(1)
	go f.replicationWorker()
	if cfg.ProbeEvery > 0 {
		f.wg.Add(1)
		go f.probeLoop(cfg.ProbeEvery)
	}
	if f.listDigests != nil {
		f.wg.Add(1)
		go f.repairLoop(cfg.RepairEvery)
	}
	return f, nil
}

// Close stops the replication worker and the probe and repair loops.
// Queued replications that have not started are abandoned; they were
// never the only copy of the intent, since repair re-derives it from
// the digest set.
func (f *Fabric) Close() {
	f.cancel()
	f.wg.Wait()
}

// Self returns this node's base URL.
func (f *Fabric) Self() string { return f.self }

// Peers returns the full peer set including self.
func (f *Fabric) Peers() []string { return f.ring.Peers() }

// Replication returns the effective replication factor.
func (f *Fabric) Replication() int { return f.replication }

// Owners returns the peers owning digest, primary first.
func (f *Fabric) Owners(digest string) []string {
	return f.ring.Owners(digest, f.replication)
}

// ForwardTarget picks a healthy owner of digest other than self to
// forward a run to, preferring the primary.  ok is false when self is
// an owner's only healthy stand-in — i.e. every other owner is
// unhealthy — or self is the primary path anyway.
func (f *Fabric) ForwardTarget(digest string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.Owners(digest) {
		if p == f.self {
			continue
		}
		if st := f.peers[p]; st != nil && st.consec < failuresBeforeUnhealthy {
			return p, true
		}
	}
	return "", false
}

// errNotHeld distinguishes "peer is fine, digest absent" from
// transport or server failure inside the fetch loop.
var errNotHeld = errors.New("cluster: peer does not hold digest")

// Fetch retrieves digest from its owner peers in ring order (then any
// remaining peer, so a mis-placed but present digest is still found),
// returning the response body stream and the peer that served it.
// Peers listed in exclude are skipped — callers that received a
// corrupt body from one peer retry with it excluded, so the fetch
// falls through to the next holder.  The caller must close the body
// and must validate content: the fabric does not inspect trace bytes.
// A nil ReadCloser with nil error means no reachable peer holds the
// digest; an error means every holder attempt failed.
func (f *Fabric) Fetch(digest string, exclude ...string) (io.ReadCloser, string, error) {
	order := f.fetchOrder(digest, exclude)
	f.bump(func(s *Stats) { s.FetchAttempts++ })
	var lastErr error
	for _, p := range order {
		body, err := f.fetchFrom(p, digest)
		switch {
		case err == nil:
			f.bump(func(s *Stats) { s.FetchHits++ })
			return body, p, nil
		case errors.Is(err, errNotHeld):
			// The peer is up, it just doesn't hold the digest.
		default:
			f.logf("cluster: fetch %s from %s: %v", digest, p, err)
			lastErr = err
		}
	}
	if lastErr != nil {
		f.bump(func(s *Stats) { s.FetchErrors++ })
		return nil, "", lastErr
	}
	f.bump(func(s *Stats) { s.FetchMisses++ })
	return nil, "", nil
}

// fetchFrom performs one GET against one peer under the fetch
// deadline.  The returned body keeps the deadline armed until Close.
func (f *Fabric) fetchFrom(peer, digest string) (io.ReadCloser, error) {
	ctx, cancel := context.WithTimeout(f.ctx, fetchTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/traces/"+digest, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set(HeaderPeer, f.self)
	start := time.Now()
	resp, err := f.client.Do(req)
	f.fetchDur.Observe(time.Since(start).Seconds())
	if err != nil {
		cancel()
		f.noteFailure(peer)
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		f.noteSuccess(peer)
		return &cancelBody{ReadCloser: resp.Body, cancel: cancel}, nil
	case resp.StatusCode == http.StatusNotFound:
		f.noteSuccess(peer)
		resp.Body.Close()
		cancel()
		return nil, errNotHeld
	default:
		f.noteFailure(peer)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%s", resp.Status)
	}
}

// cancelBody releases the per-fetch context deadline when the caller
// finishes reading the body.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// fetchOrder lists every peer except self and the excluded set:
// healthy owners first (ring order), then healthy non-owners, then
// breaker-open peers due a half-open trial.  Peers shed by the
// breaker are skipped entirely — unless they are all that's left, in
// which case they are returned as the last resort (a fetch with
// standing peers should never fail without asking anyone).
func (f *Fabric) fetchOrder(digest string, exclude []string) []string {
	skip := make(map[string]bool, len(exclude))
	for _, p := range exclude {
		skip[p] = true
	}
	owners := f.Owners(digest)
	isOwner := make(map[string]bool, len(owners))
	for _, p := range owners {
		isOwner[p] = true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	var healthyOwners, healthyRest, trial, shed []string
	add := func(p string) {
		st := f.peers[p]
		switch {
		case st.consec >= failuresBeforeUnhealthy:
			if f.allowLocked(st, now) {
				trial = append(trial, p)
			} else {
				shed = append(shed, p)
			}
		case isOwner[p]:
			healthyOwners = append(healthyOwners, p)
		default:
			healthyRest = append(healthyRest, p)
		}
	}
	for _, p := range owners {
		if p != f.self && !skip[p] {
			add(p)
		}
	}
	for _, p := range f.ring.Peers() {
		if p != f.self && !isOwner[p] && !skip[p] {
			add(p)
		}
	}
	order := append(append(healthyOwners, healthyRest...), trial...)
	if len(order) == 0 {
		return shed
	}
	f.stats.BreakerShed += uint64(len(shed))
	return order
}

// Replicate queues digest for asynchronous delivery to its other
// owners.  It returns immediately; if the queue is full the request
// is dropped and counted rather than blocking the upload path (the
// repair loop re-derives the intent on its next cycle).
func (f *Fabric) Replicate(digest string) {
	needsCopy := false
	for _, p := range f.Owners(digest) {
		if p != f.self {
			needsCopy = true
		}
	}
	if !needsCopy {
		return
	}
	select {
	case f.queue <- digest:
		f.bump(func(s *Stats) { s.ReplicationsQueued++ })
	default:
		f.bump(func(s *Stats) { s.ReplicationsDropped++ })
		f.logf("cluster: replication queue full, dropping %s", digest)
	}
}

// Drain blocks until every queued replication has been processed or
// ctx expires.  Pending means enqueued but not yet finished, so a
// delivery in flight when Drain is called is waited for.
func (f *Fabric) Drain(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		f.mu.Lock()
		pending := f.stats.ReplicationsQueued - (f.stats.ReplicationsDone + f.stats.ReplicationsFailed)
		f.mu.Unlock()
		if pending == 0 && len(f.queue) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain: %d replications still pending: %w", pending, ctx.Err())
		case <-f.ctx.Done():
			return f.ctx.Err()
		case <-t.C:
		}
	}
}

func (f *Fabric) replicationWorker() {
	defer f.wg.Done()
	for {
		select {
		case <-f.ctx.Done():
			return
		case digest := <-f.queue:
			failed := false
			for _, p := range f.Owners(digest) {
				if p == f.self {
					continue
				}
				if err := f.replicateTo(digest, p); err != nil {
					failed = true
					f.logf("cluster: replicate %s to %s: %v", digest, p, err)
				}
			}
			if failed {
				f.bump(func(s *Stats) { s.ReplicationsFailed++ })
			} else {
				f.bump(func(s *Stats) { s.ReplicationsDone++ })
			}
		}
	}
}

// replicateTo delivers one digest to one peer with bounded
// retry/backoff.  Connection errors and 5xx are retried; any 4xx is
// permanent (the peer understood us and refused).  An open breaker
// sheds the delivery immediately; the repair cycle that the peer's
// probe recovery triggers picks it up.
func (f *Fabric) replicateTo(digest, peer string) error {
	var lastErr error
	delay := f.backoff
	for attempt := 0; attempt < f.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-f.ctx.Done():
				return f.ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
		}
		if !f.allow(peer) {
			f.bump(func(s *Stats) { s.BreakerShed++ })
			return fmt.Errorf("cluster: breaker open for %s", peer)
		}
		err := f.replicateOnce(digest, peer)
		if err == nil {
			f.noteSuccess(peer)
			return nil
		}
		if isPermanent(err) {
			return err
		}
		f.noteFailure(peer)
		lastErr = err
	}
	return lastErr
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

func (f *Fabric) replicateOnce(digest, peer string) error {
	start := time.Now()
	defer func() { f.replDur.Observe(time.Since(start).Seconds()) }()
	ctx, cancel := context.WithTimeout(f.ctx, replicateTimeout)
	defer cancel()
	// Stream the trace through a pipe so replication never buffers a
	// whole container, mirroring the chunked-upload path clients use.
	pr, pw := io.Pipe()
	go func() {
		held, err := f.readTrace(digest, pw)
		if err == nil && !held {
			err = fmt.Errorf("trace %s no longer held locally", digest)
		}
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/traces", pr)
	if err != nil {
		pr.Close()
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderReplication, "1")
	req.Header.Set(HeaderPeer, f.self)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	err = fmt.Errorf("%s: %s", peer, resp.Status)
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		return &permanentError{err}
	}
	return err
}

// PostRun forwards an encoded /v1/run request body to target and
// returns the response body.  The HeaderForwarded header tells the
// receiving node to execute locally rather than forward again.  The
// call is capped by the fabric's forward timeout on top of ctx.
func (f *Fabric) PostRun(ctx context.Context, target string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, "1")
	req.Header.Set(HeaderPeer, f.self)
	resp, err := f.client.Do(req)
	if err != nil {
		f.noteFailure(target)
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		f.noteFailure(target)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			f.noteFailure(target)
		}
		return nil, fmt.Errorf("cluster: forwarded run to %s: %s", target, resp.Status)
	}
	f.noteSuccess(target)
	f.bump(func(s *Stats) { s.Forwards++ })
	return out, nil
}

func (f *Fabric) probeLoop(every time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			f.probeAll()
		}
	}
}

func (f *Fabric) probeAll() {
	f.mu.Lock()
	peers := make([]string, 0, len(f.peers))
	for p := range f.peers {
		peers = append(peers, p)
	}
	f.mu.Unlock()
	for _, p := range peers {
		f.probe(p)
	}
}

// probe checks one peer's /healthz under the probe deadline.  Probes
// bypass the circuit breaker — they are its recovery path: a healthy
// probe resets the failure count (closing the breaker), and one that
// finds an unhealthy peer answering again wakes the repair loop.
func (f *Fabric) probe(peer string) {
	now := time.Now()
	ctx, cancel := context.WithTimeout(f.ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return
	}
	req.Header.Set(HeaderPeer, f.self)
	resp, err := f.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	f.mu.Lock()
	st := f.peers[peer]
	if st == nil {
		f.mu.Unlock()
		return
	}
	st.lastProbe = now
	recovered := ok && st.consec >= failuresBeforeUnhealthy
	if ok {
		st.lastOK = now
		st.consec = 0
	} else {
		st.consec++
		if st.consec == failuresBeforeUnhealthy {
			st.openedAt = now
			f.stats.BreakerOpens++
		}
	}
	f.mu.Unlock()
	if recovered {
		select {
		case f.repairNow <- struct{}{}:
		default: // a cycle is already pending
		}
	}
}

// Health returns a snapshot of every other peer's liveness, in peer
// configuration order.
func (f *Fabric) Health() []PeerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	out := make([]PeerHealth, 0, len(f.peers))
	for _, p := range f.ring.Peers() {
		st := f.peers[p]
		if st == nil {
			continue // self
		}
		open := st.consec >= failuresBeforeUnhealthy && !f.wouldAllowLocked(st, now)
		out = append(out, PeerHealth{
			Peer:                p,
			LastProbe:           st.lastProbe,
			LastOK:              st.lastOK,
			ConsecutiveFailures: st.consec,
			Healthy:             st.consec < failuresBeforeUnhealthy,
			BreakerOpen:         open,
		})
	}
	return out
}

// StatsSnapshot returns the fabric counters, including the current
// replication queue depth and open breakers.
func (f *Fabric) StatsSnapshot() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.ReplicationQueue = len(f.queue)
	s.BreakerOpen = f.breakersOpenLocked()
	return s
}

// breakersOpenLocked counts the peers whose breaker is open; f.mu must
// be held.
func (f *Fabric) breakersOpenLocked() int {
	n := 0
	for _, st := range f.peers {
		if st.consec >= failuresBeforeUnhealthy {
			n++
		}
	}
	return n
}

func (f *Fabric) bump(fn func(*Stats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

// allow reports whether the breaker admits a call to peer right now,
// granting the half-open trial slot if one is due.
func (f *Fabric) allow(peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.peers[peer]
	if st == nil {
		return true
	}
	return f.allowLocked(st, time.Now())
}

// allowLocked implements the breaker decision.  Closed (healthy)
// always admits.  Open admits one trial per cooldown, measured from
// the later of open time and last trial; granting a trial records it.
func (f *Fabric) allowLocked(st *peerState, now time.Time) bool {
	if st.consec < failuresBeforeUnhealthy {
		return true
	}
	ref := st.openedAt
	if st.lastTrial.After(ref) {
		ref = st.lastTrial
	}
	if now.Sub(ref) < f.breakerCooldown {
		return false
	}
	st.lastTrial = now
	return true
}

// wouldAllowLocked is allowLocked without consuming the trial slot,
// for read-only snapshots.
func (f *Fabric) wouldAllowLocked(st *peerState, now time.Time) bool {
	if st.consec < failuresBeforeUnhealthy {
		return true
	}
	ref := st.openedAt
	if st.lastTrial.After(ref) {
		ref = st.lastTrial
	}
	return now.Sub(ref) >= f.breakerCooldown
}

func (f *Fabric) noteSuccess(peer string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.peers[peer]; st != nil {
		st.lastOK = time.Now()
		st.consec = 0
	}
}

func (f *Fabric) noteFailure(peer string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.peers[peer]; st != nil {
		st.consec++
		if st.consec == failuresBeforeUnhealthy {
			st.openedAt = time.Now()
			f.stats.BreakerOpens++
		}
	}
}
