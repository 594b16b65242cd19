// Package service is the batch simulation layer: a worker pool that runs
// many independent simulation jobs concurrently, deduplicates identical
// jobs in flight, and memoises results in an LRU keyed by (program
// fingerprint, configuration).  Every sweep in the repository — the
// Figure 3–8 limit studies, the Figure 9 RTM grid, cmd/tlrserve's HTTP
// batches and the tlr Run/RunBatch/StreamBatch facade — fans out
// through one of these services, so repeated sweeps hit the cache
// instead of re-simulating.
//
// Jobs are pure: a job's Run closure must depend only on its inputs, and
// identical Keys must denote identical work.  That is what makes the
// cache sound and batch results deterministic — a batch collected with
// Wait is ordered by submission index, so a sweep run twice (cold or
// warm) yields byte-identical tables.
//
// Batches are context-aware: Submit takes a context, jobs not yet on a
// worker complete with the cancellation error the moment it fires, and
// running jobs receive the context so the simulation loops can stop
// mid-flight.  Cancelled results are never cached, so cancellation can
// never poison a later identical submission.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
)

// ErrClosed reports a job that could not be dispatched because the
// Service was closed while its batch was still queueing.
var ErrClosed = errors.New("service: closed")

// ErrCanceled reports a job skipped because its batch was canceled
// (via Batch.Cancel) before the job was dispatched to a worker.  Jobs
// skipped because the batch's *context* was cancelled instead carry the
// context's error (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = errors.New("service: batch canceled")

// errBatchDone releases a batch's derived context once every result has
// been delivered; it is never observable by callers.
var errBatchDone = errors.New("service: batch complete")

// programCache is the assembled-program LRU capacity: room for all 14
// benchmark workloads' programs plus 50 assembly sources clients send.
const programCache = 64

// Options sizes a Service.
type Options struct {
	// Workers is the worker-pool size (<= 0: GOMAXPROCS).
	Workers int
	// ResultCache is the job-result LRU capacity (<= 0: 4096).
	ResultCache int
	// TraceCacheBytes bounds the digest-addressed trace store's memory
	// tier by total encoded bytes (<= 0: 64 MiB).
	TraceCacheBytes int64
	// TraceDir, when non-empty, enables the trace store's disk tier: a
	// directory of digest-named version-4 files behind the in-memory
	// LRU.  Stored traces are written through to it (small version-4
	// uploads enter memory too, see AddTraceStream), memory evictions
	// become free drops, and digest lookups fall through memory → disk
	// (promoting small files back into memory, streaming large ones in
	// O(batch) memory).  The directory must exist and be writable.
	TraceDir string
	// ResultDir, when non-empty, enables the persistent result cache:
	// keyed job results are written through to envelope files (one per
	// cache key, temp+rename) and re-indexed at startup, so a restarted
	// service answers warm-cache requests without re-simulating.  The
	// directory must exist and be writable.
	ResultDir string
	// PeerFetch, when non-nil, extends trace resolution past the local
	// tiers: on a local miss, ResolveTrace asks it for the digest's
	// container stream (any version), skipping the peers listed in
	// exclude.  It returns the stream and the peer that served it.
	// The contract is (nil, "", nil) when no peer holds the digest; a
	// returned stream is validated and digest-checked before it is
	// cached locally, so PeerFetch may be wired to untrusted
	// transports — when a body fails validation, the service retries
	// with the offending peer excluded, falling through to the next
	// holder.
	PeerFetch func(digest string, exclude []string) (io.ReadCloser, string, error)
	// MaxInflight bounds admission: Reserve fails with ErrOverloaded
	// once this many jobs are reserved and not yet released.  <= 0
	// means unlimited (Reserve still counts, for stats).
	MaxInflight int
}

// Stats counts service traffic.
type Stats struct {
	Submitted   uint64 // jobs accepted
	Ran         uint64 // jobs actually simulated
	CacheHits   uint64 // jobs answered from the result cache
	Coalesced   uint64 // jobs folded into an identical in-flight run
	Errors      uint64 // jobs that failed
	Programs    int    // assembled programs currently cached
	Results     int    // results currently cached
	Traces      int    // recorded traces in the store's memory tier
	TraceBytes  int64  // encoded bytes held by the memory tier
	TraceHits   uint64 // trace-store lookups that found the digest
	TraceMisses uint64 // trace-store lookups for unknown digests

	TraceDisk      int    // recorded traces in the store's disk tier
	TraceDiskBytes int64  // file bytes held by the disk tier
	TraceSpills    uint64 // traces written through to the disk tier
	TracePromotes  uint64 // disk hits decoded back into the memory tier

	TracePeerFetches uint64 // traces pulled from peers into the local store
	TracePeerRejects uint64 // peer trace bodies rejected (invalid or wrong digest)

	ResultsOnDisk    int    // results in the persistent result cache
	ResultDiskHits   uint64 // jobs answered from the persistent result cache
	ResultDiskWrites uint64 // results written through to the persistent cache

	AnalyzeRuns     uint64 // reuse-distance analyses actually computed
	AnalyzeHits     uint64 // analyses answered from cache (or coalesced)
	IngestedTraces  uint64 // foreign traces ingested into the store
	IngestedRecords uint64 // canonical records those ingests produced
	IngestRejects   uint64 // malformed foreign lines dropped (lenient mode)

	InflightJobs int64  // jobs currently reserved via Reserve
	MaxInflight  int    // admission budget (0: unlimited)
	Shed         uint64 // reservations refused with ErrOverloaded
}

// Job is one unit of work.
type Job struct {
	// ID is an opaque caller label echoed in the Result.
	ID string
	// Key is the cache key; identical Keys must denote identical work.
	// Empty disables caching and coalescing for this job.
	Key string
	// Run computes the result.  It must be pure (no shared mutable
	// state): its value may be cached and handed to later submitters.
	// The context is the submitting batch's; long simulations must poll
	// it and stop with ctx.Err() when it is cancelled.  A job coalesced
	// onto an identical in-flight run inherits that run's context (and
	// therefore its cancellation); errors are never cached, so a
	// cancelled result is recomputed on resubmission.
	Run func(ctx context.Context) (any, error)
	// Kind labels the job for per-kind metrics ("study", "rtm",
	// "pipeline", "vp", "analyze"); empty is reported as "other".
	Kind string
	// analyze marks reuse-distance analysis jobs so the service can
	// account for them separately in Stats.
	analyze bool
	// lane describes a trace-backed job of the trace-driven kinds, which
	// Submit may run as one lane of a shared stream pass (see pass.go).
	lane *laneSpec
}

// Result is one finished job.
type Result struct {
	// Index is the job's position in the submitted batch; collecting by
	// Index is what makes batch output deterministic.
	Index  int
	ID     string
	Value  any
	Err    error
	Cached bool // answered from cache (or coalesced onto another run)
}

// Service is the batch simulation engine.
type Service struct {
	workers int
	jobs    chan *task
	done    chan struct{}
	wg      sync.WaitGroup

	peerFetch func(digest string, exclude []string) (io.ReadCloser, string, error)

	maxInflight int64
	load        atomic.Int64 // jobs reserved and not yet released

	reg *metrics.Registry
	met serviceMetrics

	mu         sync.Mutex
	programs   *lru
	results    *lru
	traces     *traceStore
	resultDisk *resultDisk // nil: no persistent result cache
	inflight   map[string]*flight

	closeOnce sync.Once
}

// task is one unit of dispatch: a lone job, the jobs of one stream pass,
// or the jobs of one geometry family.  It holds one of its batch's
// parallelism slots until the last of its members is delivered.
type task struct {
	batch   *Batch
	members []*member
	left    atomic.Int32 // members not yet delivered
}

// member is one job of a task, at its index in the batch.
type member struct {
	job   Job
	index int
	task  *task

	flight  *flight         // the flight this member owns while it runs (nil: unkeyed)
	ctx     context.Context // what the run polls: the flight's, or the batch's when unkeyed
	derived bool            // its result was derived from another member's run (see family.go)
}

// errFlightDone releases a completed flight's context; it is never
// observable by callers.
var errFlightDone = errors.New("service: flight complete")

// flight is one running job that identical submissions coalesce onto.
// It computes under its own context, cancelled only when every batch
// interested in the result has been cancelled — so one client
// abandoning a request never aborts another client's identical
// in-flight request.
type flight struct {
	waiters []*member // guarded by Service.mu

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu    sync.Mutex
	n     int           // batches still interested
	stops []func() bool // AfterFunc stops, released on completion
}

func newFlight() *flight {
	f := &flight{}
	f.ctx, f.cancel = context.WithCancelCause(context.Background())
	return f
}

// attach registers one interested batch: if the batch's context fires
// before the flight completes, the batch drops its interest, and the
// flight is cancelled once no interest remains.
func (f *flight) attach(b *Batch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	f.stops = append(f.stops, context.AfterFunc(b.ctx, f.drop))
}

func (f *flight) drop() {
	f.mu.Lock()
	f.n--
	last := f.n == 0
	f.mu.Unlock()
	if last {
		f.cancel(context.Canceled)
	}
}

// release detaches the batch watchers and frees the flight's context
// once the run has completed.
func (f *flight) release() {
	f.mu.Lock()
	stops := f.stops
	f.stops = nil
	f.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	f.cancel(errFlightDone)
}

// New starts a Service.  Close releases its workers.
func New(opt Options) *Service {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.ResultCache <= 0 {
		opt.ResultCache = 4096
	}
	if opt.TraceCacheBytes <= 0 {
		opt.TraceCacheBytes = 64 << 20
	}
	s := &Service{
		workers:     opt.Workers,
		jobs:        make(chan *task),
		done:        make(chan struct{}),
		peerFetch:   opt.PeerFetch,
		maxInflight: int64(opt.MaxInflight),
		programs:    newLRU(programCache),
		results:     newLRU(opt.ResultCache),
		traces:      newTraceStore(opt.TraceCacheBytes, opt.TraceDir),
		inflight:    make(map[string]*flight),
		reg:         metrics.NewRegistry(),
	}
	s.registerMetrics(s.reg)
	if opt.TraceDir != "" {
		s.rehydrateTraceDir(opt.TraceDir)
	}
	if opt.ResultDir != "" {
		s.resultDisk = newResultDisk(opt.ResultDir)
		s.resultDisk.rehydrate()
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.done:
					return
				case t := <-s.jobs:
					s.runTask(t)
				}
			}
		}()
	}
	return s
}

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.workers }

// Close stops the workers after their in-flight jobs finish.  Jobs of
// still-queueing batches that have not been dispatched yet complete
// with ErrClosed, so a concurrent Wait or Results drain still receives
// every result.  Submit must not be called after Close.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
	})
}

// Metrics returns the service's metrics registry.  Callers layering on
// the service (the cluster fabric, HTTP servers) register their own
// instruments here, so one registry — and one /metrics exposition —
// covers every layer.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Stats returns a snapshot of the traffic counters, reading the same
// registry cells the /metrics exposition serves.  The snapshot is
// consistent under load: derived counters are read before the counters
// they derive from (completions before admissions, analyze splits
// before their totals), so cross-field invariants — Ran + CacheHits +
// Coalesced <= Submitted, ResultDiskHits <= CacheHits, AnalyzeRuns <=
// Ran — hold in any concurrent snapshot, and every mutex-guarded
// occupancy number is read under one critical section.
func (s *Service) Stats() Stats {
	var st Stats
	// Completion-side counters first.  Each completion's admission was
	// counted strictly before it, so reading completions before
	// admissions can only under-count completions, never over-count
	// them relative to Submitted.
	st.AnalyzeRuns = s.met.analyzeRuns.Value()
	st.AnalyzeHits = s.met.analyzeHits.Value()
	st.ResultDiskHits = s.met.resultDiskHits.Value()
	st.Ran = s.met.ran.Value()
	st.CacheHits = s.met.cacheHits.Value()
	st.Coalesced = s.met.coalesced.Value()
	st.Errors = s.met.errors.Value()
	st.Submitted = s.met.submitted.Value()

	st.TraceHits = s.met.traceHits.Value()
	st.TraceMisses = s.met.traceMisses.Value()
	st.TracePeerFetches = s.met.peerFetches.Value()
	st.TracePeerRejects = s.met.peerRejects.Value()
	st.TraceSpills = s.met.spills.Value()
	st.TracePromotes = s.met.promotes.Value()
	st.ResultDiskWrites = s.met.resultDiskWrites.Value()
	st.IngestedTraces = s.met.ingestedTraces.Value()
	st.IngestedRecords = s.met.ingestedRecords.Value()
	st.IngestRejects = s.met.ingestRejects.Value()
	st.Shed = s.met.shed.Value()

	s.mu.Lock()
	st.Programs = s.programs.len()
	st.Results = s.results.len()
	st.Traces = s.traces.len()
	st.TraceBytes = s.traces.bytes
	st.TraceDisk = s.traces.diskLen()
	st.TraceDiskBytes = s.traces.diskBytes
	if s.resultDisk != nil {
		st.ResultsOnDisk = s.resultDisk.len()
	}
	s.mu.Unlock()

	st.InflightJobs = s.load.Load()
	st.MaxInflight = int(s.maxInflight)
	return st
}

// ErrOverloaded reports a reservation refused because the in-flight
// job budget (Options.MaxInflight) is exhausted.  HTTP front doors
// map it to 429 with a Retry-After.
var ErrOverloaded = errors.New("service: overloaded: in-flight job budget exhausted")

// Reserve claims admission for n jobs against the MaxInflight budget,
// returning a release function the caller must invoke (once) when the
// work — including delivering its results — is finished.  With no
// budget configured the reservation always succeeds but is still
// counted, so stats report real load either way.  A refused
// reservation claims nothing.
func (s *Service) Reserve(n int) (release func(), err error) {
	if n <= 0 {
		n = 1
	}
	for {
		cur := s.load.Load()
		next := cur + int64(n)
		if s.maxInflight > 0 && next > s.maxInflight {
			s.met.shed.Inc()
			return nil, fmt.Errorf("%w (%d in flight, budget %d, requested %d)",
				ErrOverloaded, cur, s.maxInflight, n)
		}
		if s.load.CompareAndSwap(cur, next) {
			break
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() { s.load.Add(int64(-n)) })
	}, nil
}

// Inflight reports the jobs currently reserved and not yet released.
func (s *Service) Inflight() int64 { return s.load.Load() }

// NoteIngest accounts for one foreign-trace ingest pass: the canonical
// records it produced and the malformed lines it dropped.  The ingest
// itself happens in package ingest; the service only keeps the books.
func (s *Service) NoteIngest(records, rejected uint64) {
	s.met.ingestedTraces.Inc()
	s.met.ingestedRecords.Add(records)
	s.met.ingestRejects.Add(rejected)
}

// AddTrace stores a recorded trace in the service's digest-addressed
// trace store and returns its digest.  Storing an already-present
// digest refreshes its LRU position.  With a disk tier the trace is
// also written through to its digest-named file (so a later memory
// eviction loses nothing); a write-through failure leaves the trace
// memory-only rather than failing the store.
func (s *Service) AddTrace(t *tracefile.Trace) string {
	digest := t.Digest()
	var disk *tracefile.SpoolInfo
	wrote := false
	if dir := s.traceDir(); dir != "" {
		path := filepath.Join(dir, tracefile.DigestFileName(digest))
		if _, err := os.Stat(path); err != nil {
			wrote = t.Save(path) == nil
		}
		if fi, err := os.Stat(path); err == nil {
			disk = &tracefile.SpoolInfo{
				Digest:         digest,
				Records:        t.Records(),
				CanonicalBytes: int64(t.CanonicalBytes()),
				Path:           path,
				FileBytes:      fi.Size(),
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if disk != nil && s.traces.addDisk(*disk) && wrote {
		s.met.spills.Inc()
	}
	return s.traces.add(t)
}

// AddTraceStream stores a trace read from a container stream (any
// version), validating and digesting it incrementally.  With a disk
// tier the stream spools straight to its digest-named file.  A
// version-4 upload whose declared payload fits the promote bound (one
// eighth of the memory tier) keeps the payload the spool validates and
// enters the memory tier too, as AddTrace would, so its first replay
// decodes nothing again; any other upload (versions 1-3, longer
// payloads) is never materialised, so arbitrarily long uploads cost
// O(batch) memory, and the memory tier fills in when the digest is
// first replayed (see ResolveTrace).  Without a disk tier the trace is
// decoded into the memory tier, as AddTrace would.  The returned
// TraceInfo is the entry GET /v1/traces would list.
func (s *Service) AddTraceStream(r io.Reader) (TraceInfo, error) {
	return s.installStream(r, "")
}

// installStream is the one way a container stream enters the store:
// AddTraceStream's uploads (want == "") and peer fetches, which want
// one digest.  It makes one verifying pass over the body: with a disk
// tier, SpoolToDir tees it into the digest-named file and keeps a
// version-4 payload within the promote bound; without one, Load decodes
// it.  A body whose content digests to anything else than want is
// rejected before it is stored, so it can neither resolve the digest
// asked for nor take either tier's room.  (A spool has already
// installed such a body's file under its true name, possibly a trace
// the store holds; the disk index does not learn of it.)
func (s *Service) installStream(r io.Reader, want string) (TraceInfo, error) {
	var (
		t   *tracefile.Trace // memory tier: the decoded or kept trace
		sp  tracefile.SpoolInfo
		err error
	)
	if dir := s.traceDir(); dir == "" {
		t, err = tracefile.Load(r)
	} else {
		sp, t, err = tracefile.SpoolToDir(r, dir, s.traces.promoteMaxFileBytes())
	}
	if err != nil {
		return TraceInfo{}, err
	}
	digest := sp.Digest
	if t != nil {
		digest = t.Digest()
	}
	if want != "" && digest != want {
		return TraceInfo{}, fmt.Errorf("content digest is %s", digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp.Path != "" && s.traces.addDisk(sp) {
		s.met.spills.Inc()
	}
	if t != nil {
		s.traces.add(t)
	} else {
		// Storing a memory-resident digest again refreshes its LRU
		// position, as AddTrace does.
		s.traces.get(digest)
	}
	return s.traces.info(digest), nil
}

// traceDir returns the disk tier's directory ("" = no disk tier).
func (s *Service) traceDir() string { return s.traces.dir }

// rehydrateTraceDir registers the digest-named trace files already in
// the disk tier's directory, so a store pointed at an existing
// directory (a restarted server) serves its traces without re-upload.
// Runs before the Service is shared, so no locking; files that fail to
// probe, or whose name does not match their declared digest, are
// logged and skipped (they 404, exactly as they would have before
// rehydration existed) — junk in the data dir must never prevent
// startup.
func (s *Service) rehydrateTraceDir(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".trc") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		info, err := tracefile.ProbeFile(path)
		if err != nil {
			log.Printf("service: trace store: skipping %s: %v", path, err)
			continue
		}
		if tracefile.DigestFileName(info.Digest) != ent.Name() {
			log.Printf("service: trace store: skipping %s: file name does not match its digest %s", path, info.Digest)
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			log.Printf("service: trace store: skipping %s: %v", path, err)
			continue
		}
		s.traces.addDisk(tracefile.SpoolInfo{
			Digest:         info.Digest,
			Records:        info.Records,
			CanonicalBytes: info.CanonicalBytes,
			Path:           path,
			FileBytes:      fi.Size(),
		})
	}
}

// TraceHandle is a resolved stored trace: its identity plus an opener
// that yields one replayable record stream per call.
type TraceHandle struct {
	Digest  string
	Records uint64
	open    func() (trace.Stream, error)
}

// Open opens one pass over the stored stream.  The caller must Close
// it.
func (h TraceHandle) Open() (trace.Stream, error) { return h.open() }

// ResolveTrace looks a digest up in the trace store, falling through
// memory → disk → peers (when Options.PeerFetch is wired) → miss.  A
// memory hit (and a small disk hit, which is decoded back into the
// memory tier — a promotion) serves O(1)-seekable cursors over the
// in-memory trace; a large disk hit serves incrementally decoded file
// streams, each refused at open when the file's header no longer
// matches the store's entry, so replay memory stays O(batch) however
// long the trace is.  A peer hit streams the fetched container into the
// local store (see installStream: disk tier when configured, memory
// too when it is a small version-4 body) and then resolves locally, so
// the next lookup is a local hit.  Each call counts one hit or miss;
// callers that only need a digest's record count use TraceRecords,
// which counts none.
func (s *Service) ResolveTrace(digest string) (TraceHandle, bool) {
	if h, ok := s.resolveLocal(digest); ok {
		return h, true
	}
	// A fetched body resolves through the normal local path: a body the
	// install kept hits the memory tier, and a longer one promotes or
	// streams as a restart-rehydrated file would.
	if s.fetchFromPeer(digest) {
		if h, ok := s.resolveLocal(digest); ok {
			return h, true
		}
	}
	s.met.traceMisses.Inc()
	return TraceHandle{}, false
}

// TraceRecords returns a stored trace's record count from the store's
// indexes — the memory tier's trace or the disk tier's entry — under
// one lock, opening, decoding and promoting nothing and counting no
// hit: building a job and its cache key needs only the count, and a
// job answered from the result cache never replays the trace.  A
// memory-tier hit still refreshes the trace's LRU position.  Only
// when neither local tier knows the digest does it fall through to
// ResolveTrace's peer leg, which installs what a peer holds; a digest
// no tier or peer holds counts a miss.
func (s *Service) TraceRecords(digest string) (uint64, bool) {
	if n, ok := s.indexedRecords(digest); ok {
		return n, true
	}
	if s.fetchFromPeer(digest) {
		if n, ok := s.indexedRecords(digest); ok {
			return n, true
		}
	}
	s.met.traceMisses.Inc()
	return 0, false
}

func (s *Service) indexedRecords(digest string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces.records(digest)
}

// resolveLocal is ResolveTrace's memory → disk leg.  Hits count
// TraceHits; a miss counts nothing (the caller decides whether it is
// final).
func (s *Service) resolveLocal(digest string) (TraceHandle, bool) {
	s.mu.Lock()
	if t, ok := s.traces.get(digest); ok {
		s.met.traceHits.Inc()
		s.mu.Unlock()
		return memHandle(digest, t), true
	}
	ent, onDisk := s.traces.getDisk(digest)
	if !onDisk {
		s.mu.Unlock()
		return TraceHandle{}, false
	}
	s.met.traceHits.Inc()
	promote := ent.FileBytes <= s.traces.promoteMaxFileBytes()
	s.mu.Unlock()

	if promote {
		// The file must hold the digest it is indexed under: a valid
		// container of another trace (replaced out-of-band) is not it.
		if t, err := tracefile.OpenFile(ent.Path); err == nil && t.Digest() == digest {
			s.met.promotes.Inc()
			s.mu.Lock()
			// Another goroutine may have promoted the same digest while
			// this one was decoding; the store's add is idempotent.
			s.traces.add(t)
			s.mu.Unlock()
			return memHandle(digest, t), true
		}
		// A disk-tier file that no longer loads or holds another digest
		// (deleted, corrupted or replaced out-of-band) degrades to the
		// streaming path.  Its opener refuses a file whose header
		// disagrees with the entry (another trace's container) and
		// surfaces one that no longer decodes, but a stream is never
		// hashed, so a payload altered under an intact header replays
		// as it decodes.
	}
	return TraceHandle{
		Digest:  digest,
		Records: ent.Records,
		open: func() (trace.Stream, error) {
			st, err := ent.Open()
			if err != nil {
				return nil, err
			}
			return st, nil
		},
	}, true
}

// fetchFromPeer is ResolveTrace's peer leg: pull the digest's
// container from whichever peer holds it, validate every byte (the
// spool re-digests the content), and install it locally, reporting
// whether it did.  A body whose content digests to something else is
// rejected and never indexed under the requested digest — a
// misbehaving peer cannot poison the local store.  A rejected body
// does not end the lookup: the fetch is retried with the offending
// peer excluded, so a corrupt or dying primary owner falls through to
// the next holder.
func (s *Service) fetchFromPeer(digest string) bool {
	if s.peerFetch == nil {
		return false
	}
	const maxAttempts = 3
	var exclude []string
	for attempt := 0; attempt < maxAttempts; attempt++ {
		body, peer, err := s.peerFetch(digest, exclude)
		if err != nil {
			// The transport already fell through every reachable peer.
			log.Printf("service: peer fetch %s: %v", digest, err)
			return false
		}
		if body == nil {
			return false
		}
		if s.installPeerBody(digest, body) {
			return true
		}
		if peer == "" {
			// No peer identity to exclude: retrying would just ask the
			// same source again.
			return false
		}
		exclude = append(exclude, peer)
	}
	return false
}

// installPeerBody validates one fetched container and installs it in
// the local tiers.  false means the body was rejected (invalid or
// wrong digest) and the caller may retry from another peer.
func (s *Service) installPeerBody(digest string, body io.ReadCloser) bool {
	defer body.Close()
	if _, err := s.installStream(body, digest); err != nil {
		s.met.peerRejects.Inc()
		log.Printf("service: peer fetch %s: rejected body: %v", digest, err)
		return false
	}
	s.met.peerFetches.Inc()
	return true
}

// TraceDigests returns every digest the local tiers hold (memory and
// disk, deduplicated, sorted).  It feeds the cluster repair loop's
// scan; no hit/miss accounting.
func (s *Service) TraceDigests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces.digests()
}

// HasTrace reports whether the digest resolves from the local tiers
// alone — no peer traffic, no hit/miss accounting.  Routing layers use
// it to decide whether a digest-referenced request needs forwarding.
func (s *Service) HasTrace(digest string) bool {
	_, ok := s.indexedRecords(digest)
	return ok
}

func memHandle(digest string, t *tracefile.Trace) TraceHandle {
	return TraceHandle{
		Digest:  digest,
		Records: t.Records(),
		open:    func() (trace.Stream, error) { return t.Cursor(), nil },
	}
}

// WriteTraceTo streams the stored trace for a digest to w as a
// version-4 container, serving the memory tier's encoding or copying
// the disk tier's file without decoding it.  It reports the bytes
// written and whether the digest was found; an error with zero bytes
// written means nothing reached w, so a server can still answer with
// an error status.
func (s *Service) WriteTraceTo(digest string, w io.Writer) (int64, bool, error) {
	s.mu.Lock()
	t, inMem := s.traces.get(digest)
	ent, onDisk := s.traces.getDisk(digest)
	s.mu.Unlock()
	if !inMem && !onDisk {
		s.met.traceMisses.Inc()
		return 0, false, nil
	}
	s.met.traceHits.Inc()
	if inMem {
		n, err := t.WriteTo(w)
		return n, true, err
	}
	f, err := os.Open(ent.Path)
	if err != nil {
		return 0, true, err
	}
	defer f.Close()
	n, err := io.Copy(w, f)
	return n, true, err
}

// Traces lists the stored traces: the memory tier most recently used
// first, then disk-only traces.
func (s *Service) Traces() []TraceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces.list()
}

// Batch is a submitted set of jobs.
type Batch struct {
	ch        chan Result
	n         int
	sem       chan struct{} // non-nil: per-batch parallelism bound
	ctx       context.Context
	cancel    context.CancelCauseFunc
	delivered atomic.Int64
}

// Cancel abandons the batch: jobs not yet handed to a worker complete
// immediately with ErrCanceled instead of simulating, and jobs already
// running are asked to stop through their context.  Exactly Len results
// are still delivered, so drains and Wait never hang.
func (b *Batch) Cancel() { b.cancel(ErrCanceled) }

// cause reports why the batch stopped accepting work: ErrCanceled after
// an explicit Cancel, or the submitting context's error.
func (b *Batch) cause() error {
	if err := context.Cause(b.ctx); err != nil && !errors.Is(err, errBatchDone) {
		return err
	}
	return b.ctx.Err()
}

func (b *Batch) canceled() bool { return b.ctx.Err() != nil }

// deliver sends one result and releases the batch's context once the
// last one is out.
func (b *Batch) deliver(r Result) {
	b.ch <- r
	if b.delivered.Add(1) == int64(b.n) {
		b.cancel(errBatchDone)
	}
}

// Submit enqueues jobs and returns immediately; results stream on
// Results as they finish.  Cancelling ctx (or calling Batch.Cancel)
// skips jobs not yet on a worker — they complete with the cancellation
// error — and stops context-aware jobs already running.  maxParallel
// bounds how many of this batch's jobs run at once (0 = no per-batch
// bound beyond the worker pool).
func (s *Service) Submit(ctx context.Context, jobs []Job, maxParallel int) *Batch {
	if ctx == nil {
		ctx = context.Background()
	}
	bctx, cancel := context.WithCancelCause(ctx)
	b := &Batch{ch: make(chan Result, len(jobs)), n: len(jobs), ctx: bctx, cancel: cancel}
	if len(jobs) == 0 {
		cancel(errBatchDone)
		return b
	}
	if maxParallel > 0 && maxParallel < len(jobs) {
		b.sem = make(chan struct{}, maxParallel)
	}
	s.met.submitted.Add(uint64(len(jobs)))
	tasks := b.tasks(jobs)
	abort := func(t *task, err error, slot bool) {
		for _, m := range t.members {
			s.met.errors.Inc()
			b.deliver(Result{Index: m.index, ID: m.job.ID, Err: err})
		}
		if slot {
			<-b.sem
		}
	}
	go func() {
		for _, t := range tasks {
			if b.sem != nil {
				select {
				case b.sem <- struct{}{}:
				case <-s.done:
					abort(t, ErrClosed, false)
					continue
				case <-bctx.Done():
					abort(t, b.cause(), false)
					continue
				}
			}
			select {
			case s.jobs <- t:
			case <-s.done:
				abort(t, ErrClosed, b.sem != nil)
			case <-bctx.Done():
				abort(t, b.cause(), b.sem != nil)
			}
		}
	}()
	return b
}

// tasks groups a batch's jobs into tasks, in order of each task's first
// job: the trace-backed jobs sharing a pass key into one stream pass,
// the program-backed RTM jobs of one geometry family into one family,
// every other job alone.
func (b *Batch) tasks(jobs []Job) []*task {
	var tasks []*task
	groups := make(map[string]*task)
	for i, j := range jobs {
		key := j.groupKey()
		t := groups[key]
		if t == nil {
			t = &task{batch: b}
			tasks = append(tasks, t)
			if key != "" {
				groups[key] = t
			}
		}
		t.members = append(t.members, &member{job: j, index: i, task: t})
	}
	for _, t := range tasks {
		t.left.Store(int32(len(t.members)))
	}
	return tasks
}

// Results streams each job's result as it completes (completion order).
// Exactly Len results are delivered.
func (b *Batch) Results() <-chan Result { return b.ch }

// Len returns the number of jobs in the batch.
func (b *Batch) Len() int { return b.n }

// Wait collects the whole batch ordered by submission index and returns
// the first error (by index) if any job failed.
func (b *Batch) Wait() ([]Result, error) {
	out := make([]Result, b.n)
	for i := 0; i < b.n; i++ {
		r := <-b.ch
		out[r.Index] = r
	}
	for i := range out {
		if out[i].Err != nil {
			return out, fmt.Errorf("job %d (%s): %w", i, out[i].ID, out[i].Err)
		}
	}
	return out, nil
}

func (s *Service) runTask(t *task) {
	var run []*member
	for _, m := range t.members {
		if t.batch.canceled() {
			s.finish(m, nil, t.batch.cause(), false, 0)
			continue
		}
		if s.claim(m) {
			run = append(run, m)
		}
	}
	if len(run) == 0 {
		return
	}
	start := time.Now()
	if l := run[0].job.lane; l == nil || l.src.prog != nil {
		if len(run) > 1 {
			s.runFamily(run)
			return
		}
		m := run[0]
		v, err := m.job.Run(m.ctx)
		s.complete(m, v, err, time.Since(start))
		return
	}
	lanes := make([]*lane, len(run))
	for i, m := range run {
		lanes[i] = &lane{spec: m.job.lane, ctx: m.ctx}
	}
	runPass(lanes, func(i int, v any, err error) {
		run[i].derived = lanes[i].derived
		s.complete(run[i], v, err, time.Since(start))
	})
}

// claim answers m from the result cache, the persistent tier or an
// identical in-flight run when it can, reporting false; otherwise it
// makes m the owner of a new flight (keyed jobs only) and reports true:
// m must then be computed and handed to complete.
func (s *Service) claim(m *member) bool {
	key := m.job.Key
	if key == "" {
		m.ctx = m.task.batch.ctx
		return true
	}
	s.mu.Lock()
	for {
		if v, ok := s.results.get(key); ok {
			s.met.cacheHits.Inc()
			if m.job.analyze {
				s.met.analyzeHits.Inc()
			}
			s.mu.Unlock()
			s.finish(m, v, nil, true, 0)
			return false
		}
		if f, ok := s.inflight[key]; ok {
			// Interest must be registered in the same critical section that
			// joins the flight: attached outside it, the previous holder's
			// cancellation could drop the count to zero and abort the run
			// before this live batch is counted.
			f.waiters = append(f.waiters, m)
			s.met.coalesced.Inc()
			if m.job.analyze {
				s.met.analyzeHits.Inc()
			}
			f.attach(m.task.batch)
			s.mu.Unlock()
			// The waiter is delivered by whoever completes the flight.
			return false
		}
		if s.resultDisk == nil || !s.resultDisk.has(key) {
			break
		}
		// The persistent tier has this key: load it outside the lock and
		// re-admit it to the memory LRU.  A file that no longer loads
		// drops out of the index and the loop re-checks the volatile
		// tiers (both may have changed while the lock was released).
		s.mu.Unlock()
		v, err := s.resultDisk.load(key)
		s.mu.Lock()
		if err == nil {
			s.results.add(key, v)
			s.met.cacheHits.Inc()
			s.met.resultDiskHits.Inc()
			if m.job.analyze {
				s.met.analyzeHits.Inc()
			}
			s.mu.Unlock()
			s.finish(m, v, nil, true, 0)
			return false
		}
		log.Printf("service: result cache: dropping %s: %v", key, err)
		s.resultDisk.drop(key)
	}
	f := newFlight()
	f.attach(m.task.batch)
	s.inflight[key] = f
	s.mu.Unlock()
	// Keyed results are shared across batches, so the run computes under
	// the flight's context, not this batch's: it only stops once every
	// interested batch has been cancelled.
	m.flight, m.ctx = f, f.ctx
	return true
}

// complete records the result of a member that claim let run: it caches a
// keyed success (writing it through to the persistent tier) and
// delivers it to the member and every waiter of its flight.
func (s *Service) complete(m *member, v any, err error, dur time.Duration) {
	f := m.flight
	if f == nil {
		s.finish(m, v, err, false, dur)
		return
	}
	key := m.job.Key
	s.mu.Lock()
	delete(s.inflight, key)
	persist := false
	if err == nil {
		s.results.add(key, v)
		persist = s.resultDisk != nil && !s.resultDisk.has(key)
	}
	waiters := f.waiters
	s.mu.Unlock()
	f.release()

	if persist {
		// Write-through to the persistent tier, outside the lock (file
		// I/O) and after the flight is released (waiters need not wait on
		// the disk).  Only the flight owner reaches here, so no two
		// goroutines write the same key concurrently.
		if ok, werr := s.resultDisk.save(key, v); werr != nil {
			log.Printf("service: result cache: persisting %s: %v", key, werr)
		} else if ok {
			s.mu.Lock()
			s.resultDisk.markKnown(key)
			s.mu.Unlock()
			s.met.resultDiskWrites.Inc()
		}
	}

	s.finish(m, v, err, false, dur)
	for _, w := range waiters {
		s.finish(w, v, err, true, 0)
	}
}

// isCancellation reports whether err means "skipped or stopped by
// cancellation" rather than a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// finish counts and delivers one result; the last of a task's members
// releases the task's parallelism slot.  dur is the wall-clock run time
// for jobs that were actually simulated (cached, derived and skipped
// deliveries pass 0 and are never observed in the latency histograms).
func (s *Service) finish(m *member, v any, err error, cached bool, dur time.Duration) {
	switch {
	case cached:
		// CacheHits/Coalesced already counted at lookup time.
	case isCancellation(err):
		// Skipped (or stopped mid-run), not simulated to completion.
	case m.derived:
		s.met.derived.With(jobKind(m.job)).Inc()
	default:
		s.met.ran.Inc()
		s.met.jobDur.With(jobKind(m.job)).Observe(dur.Seconds())
		if m.job.analyze && err == nil {
			s.met.analyzeRuns.Inc()
		}
	}
	if err != nil {
		s.met.errors.Inc()
	}
	b := m.task.batch
	b.deliver(Result{Index: m.index, ID: m.job.ID, Value: v, Err: err, Cached: cached})
	if m.task.left.Add(-1) == 0 && b.sem != nil {
		<-b.sem
	}
}
