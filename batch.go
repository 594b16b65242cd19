package tlr

import (
	"io"
	"sync"

	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/service"
)

// The Batcher owns the batch simulation engine behind Run, RunBatch and
// StreamBatch: a worker pool plus program and result caches that persist
// across calls, so configuration sweeps pay for each distinct simulation
// once.  cmd/tlrserve serves the same API over HTTP/JSON.

// BatchStats counts batch-service traffic: one request is one service
// job.
type BatchStats = service.Stats

// BatchOptions sizes a Batcher.
type BatchOptions struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the result-cache capacity in requests (0 = 4096).
	CacheSize int
	// TraceStoreBytes bounds the memory tier of the digest-addressed
	// trace store behind StoreTrace/TraceRef by total encoded bytes
	// (0 = 64 MiB).
	TraceStoreBytes int64
	// TraceDir, when non-empty, enables the trace store's disk tier: a
	// directory of digest-named version-4 trace files behind the memory
	// LRU.  Stored traces are written through to it, memory evictions
	// become free drops, and TraceRef resolution falls through
	// memory → disk, replaying large disk-tier traces as incrementally
	// decoded streams in O(batch) memory.  The directory must exist and
	// be writable.
	TraceDir string
	// ResultDir, when non-empty, enables the persistent result cache:
	// typed request results are written through to disk and re-indexed
	// at startup, so a restarted Batcher answers warm-cache requests
	// without re-simulating.  The directory must exist and be writable.
	ResultDir string
	// PeerFetch, when non-nil, extends TraceRef resolution past the
	// local store tiers: on a local miss it is asked for the digest's
	// container stream, skipping the peers in exclude ((nil, "", nil)
	// = no peer holds it); it returns the serving peer so a body that
	// fails validation can be retried with that peer excluded.
	// Fetched bodies are validated and digest-checked before they are
	// cached, so the transport need not be trusted.  cmd/tlrserve
	// wires this to the cluster fabric.
	PeerFetch func(digest string, exclude []string) (io.ReadCloser, string, error)
	// MaxInflight bounds admission: Reserve fails with ErrOverloaded
	// once this many requests are reserved and not yet released.
	// 0 = unlimited.  HTTP front doors map the failure to 429.
	MaxInflight int
}

// ErrOverloaded reports a Reserve refused because the in-flight
// request budget (BatchOptions.MaxInflight) is exhausted.
var ErrOverloaded = service.ErrOverloaded

// Batcher owns a batch simulation service: a worker pool plus program
// and result caches that persist across Run/RunBatch/StreamBatch calls.
type Batcher struct {
	svc *service.Service
}

// NewBatcher starts a batch service.  Close releases its workers.
func NewBatcher(opt BatchOptions) *Batcher {
	return &Batcher{svc: service.New(service.Options{
		Workers:         opt.Workers,
		ResultCache:     opt.CacheSize,
		TraceCacheBytes: opt.TraceStoreBytes,
		TraceDir:        opt.TraceDir,
		ResultDir:       opt.ResultDir,
		PeerFetch:       opt.PeerFetch,
		MaxInflight:     opt.MaxInflight,
	})}
}

// Close stops the Batcher's workers after in-flight requests finish.
func (b *Batcher) Close() { b.svc.Close() }

// Workers returns the worker-pool size.
func (b *Batcher) Workers() int { return b.svc.Workers() }

// Reserve claims admission for n requests against the MaxInflight
// budget, returning a release function the caller must invoke (once)
// when the work is finished.  It fails with an error wrapping
// ErrOverloaded when the budget is exhausted.
func (b *Batcher) Reserve(n int) (release func(), err error) { return b.svc.Reserve(n) }

// TraceDigests returns every digest the local trace store holds
// (memory and disk tiers, deduplicated, sorted).  The cluster repair
// loop scans it.
func (b *Batcher) TraceDigests() []string { return b.svc.TraceDigests() }

// Metrics returns the Batcher's metrics registry — the single source
// behind both Stats and the Prometheus exposition.  In-module servers
// (cmd/tlrserve, the cluster fabric) register their own instruments on
// it so one scrape covers every layer.
func (b *Batcher) Metrics() *metrics.Registry { return b.svc.Metrics() }

// WriteMetrics writes the Batcher's metrics in Prometheus text format.
func (b *Batcher) WriteMetrics(w io.Writer) error { return b.svc.Metrics().WritePrometheus(w) }

// Stats returns a snapshot of the Batcher's traffic counters.
func (b *Batcher) Stats() BatchStats { return b.svc.Stats() }

// The package-level Batcher behind Run/RunBatch/StreamBatch, started on
// first use.
var (
	defaultBatcherOnce sync.Once
	defaultBatcher     *Batcher
)

// DefaultBatcher returns the shared package-level Batcher (GOMAXPROCS
// workers): every package-level Run, RunBatch and StreamBatch call
// shares its worker pool and caches.
func DefaultBatcher() *Batcher {
	defaultBatcherOnce.Do(func() { defaultBatcher = NewBatcher(BatchOptions{}) })
	return defaultBatcher
}
