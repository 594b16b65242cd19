// Command tlrserve serves the simulation API over HTTP/JSON: the public
// tlr Request/Run facade (worker pool, result cache, in-flight
// coalescing) behind POST /v1/run and POST /v1/batch, and a
// digest-addressed trace store behind /v1/traces for
// record-once/sweep-many workflows.
//
// Usage:
//
//	tlrserve [-addr :8321] [-workers N] [-cache N] [-trace-store-mb 64] [-trace-dir DIR]
//	         [-max-trace-mb 64]
//
// # Run API
//
// POST /v1/run accepts one request in the tlr wire format — an
// instruction-stream input (a built-in "workload", assembly "source",
// or a recorded "trace" reference) plus exactly one configuration
// naming the simulation kind ("study", "rtm", "pipeline" or "vp") —
// and answers with one result:
//
//	{"workload": "gcc", "rtm": {"geometry": {"sets": 128, "pcWays": 4,
//	 "tracesPerPC": 8}, "heuristic": "ILR EXP"},
//	 "skip": 1000, "budget": 100000}
//
//	{"workload": "li", "pipeline": {"rtm": {"geometry": {"sets": 128,
//	 "pcWays": 4, "tracesPerPC": 8}}}, "budget": 100000}
//
// # Batch API
//
// POST /v1/batch accepts {"jobs": [...]} of the same request objects.
// The response streams one JSON result per line (NDJSON) as each
// simulation finishes; every line carries the job's batch index, so
// clients can reassemble deterministic order.  Identical requests —
// within a batch or across batches — are simulated once and answered
// from cache, and closing the connection cancels the batch, stopping
// in-flight simulations at their next cancellation check.
//
// # Trace store
//
// POST /v1/traces uploads a recorded trace file (the body is the raw
// file, any container version; see cmd/tlrtrace record) into the
// server's store and answers {"digest", "records", "tier", ...}.  The
// body is consumed incrementally — chunked uploads included — and
// with -trace-dir set it spools straight to a digest-named file in the
// store's disk tier while being validated and digested.  A version-4
// body whose payload is within the promote bound (an eighth of
// -trace-store-mb) is kept by that same pass and enters the memory
// tier too; any longer body is never held in memory however long the
// recording is (-max-trace-mb still bounds the total).  Run and batch
// requests then reference it by content digest without re-uploading:
//
//	{"trace": {"digest": "sha256:…"}, "study": {"budget": 100000,
//	 "window": 256}}
//
// Trace-driven kinds (study, rtm, vp) replay the stored stream instead
// of simulating a program — upload once, sweep the whole configuration
// grid.  Digest resolution falls through the tiers (memory LRU →
// disk → 404) when a job replays it: small disk hits are promoted back
// into memory, large ones replay as incrementally decoded streams in
// O(batch) memory.  A request answered from the result cache resolves
// nothing; its key needs only the digest's record count, read from the
// store's index.
// Pipeline requests are execution-driven and reject trace inputs.
// GET /v1/traces lists the stored digests with their per-tier sizes
// and the tier occupancy/spill/promote counters; GET
// /v1/traces/{digest} downloads a stored trace as a version-4 file
// (straight from the disk tier's file when it lives there; see
// cmd/tlrtrace pull), so a recording made and uploaded on one host can
// be fetched and inspected on another.
//
// # Foreign traces and reuse-distance analytics
//
// POST /v1/ingest converts a foreign trace file — a CSV address trace
// or the "PC op" text format, gzip-transparent — into a canonical trace
// in the store (see the handler comment for the layout query
// parameters) and answers {"digest", "records", "lines", "rejected"}.
// POST /v1/analyze runs the reuse-distance analysis — exact binned LRU
// stack distances per operand-location class — over any stream input;
// the "analyze" configuration is implied, so a body of
// {"trace": {"digest": "sha256:…"}} analyses a stored trace over its
// whole length.  Analyses are cached and digest-routed like every other
// request kind.
//
// # Cluster
//
// With -peers (a comma-separated list of node base URLs, self
// included) and -self (this node's own entry in that list), a set of
// tlrserve processes becomes one digest-addressed fabric: a
// consistent-hash ring places every trace digest on -replication
// owner nodes.  Uploads store locally and replicate asynchronously to
// the other owners; TraceRef resolution falls through memory → disk →
// owner/replica peers (fetched traces stream into the local disk
// tier, which is why -peers requires -trace-dir) → 404; and a
// digest-referenced run posted to a node that does not hold the trace
// is forwarded to a node that does (falling back to pulling the trace
// once and caching it).  Node-to-node traffic uses the public
// endpoints with marker headers (X-Tlr-Replication, X-Tlr-Forwarded)
// so nothing echoes around the ring.  -result-dir (useful clustered or
// not) persists keyed results to disk, so a restarted node answers
// warm-cache requests without re-simulating.
//
// # Failure handling
//
// Each node heals the ring it can see.  A background anti-entropy
// loop (-repair-interval; POST /v1/repair runs one cycle on demand)
// scans the local store and backfills digests whose other owners do
// not hold them; it is the one path that re-delivers a failed
// replication, and a health probe that sees a dead peer answering
// again triggers an immediate cycle.  A per-peer circuit breaker
// sheds calls to dead peers immediately and half-opens after a
// cooldown.  -max-inflight bounds admitted simulation work:
// beyond it, run/analyze/batch/ingest answer 429 with Retry-After
// instead of queueing toward a timeout.  SIGTERM/SIGINT shut down
// gracefully: stop accepting, drain open requests and the replication
// queue (-drain-timeout), then log a one-line drain summary.
// -chaos-drop and -chaos-delay inject transport faults on peer
// traffic for chaos testing.
//
// GET /healthz reports liveness; GET /v1/stats reports the service
// counters (tlr.BatchStats: jobs, trace store, result cache, analytics,
// admission) and runtime counters, and (when clustered) per-peer health
// and fabric counters.
// With -pprof, the standard net/http/pprof endpoints are mounted under
// /debug/pprof/ so decode and simulation hot paths can be profiled
// against the live server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/cluster"
	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 0, "result cache capacity in jobs (0 = default)")
	traceStoreMB := flag.Int64("trace-store-mb", 0, "trace store memory tier capacity in MiB (0 = default 64)")
	traceDir := flag.String("trace-dir", "", "trace store disk tier directory (empty = memory only); created if absent")
	maxTraceMB := flag.Int64("max-trace-mb", 0, "largest accepted trace upload in MiB (0 = default 64)")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	resultDir := flag.String("result-dir", "", "persistent result cache directory (empty = memory only); created if absent")
	peers := flag.String("peers", "", "comma-separated cluster peer base URLs, self included (empty = single node)")
	self := flag.String("self", "", "this node's base URL; required with -peers and must appear in the list")
	replication := flag.Int("replication", 2, "cluster replication factor (owners per digest)")
	peerProbe := flag.Duration("peer-probe", 10*time.Second, "peer health probe interval (0 disables probing)")
	repairEvery := flag.Duration("repair-interval", time.Minute, "anti-entropy repair interval (0 disables the loop; POST /v1/repair still runs one cycle)")
	maxInflight := flag.Int("max-inflight", 0, "in-flight job admission budget for run/analyze/batch/ingest (0 = unlimited); beyond it requests get 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for open requests and replication queues")
	chaosDrop := flag.Float64("chaos-drop", 0, "fault injection: probability [0,1) of dropping each peer request (testing only)")
	chaosDelay := flag.Duration("chaos-delay", 0, "fault injection: added latency on every peer request (testing only)")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatalf("tlrserve: -trace-dir: %v", err)
		}
	}
	if *resultDir != "" {
		if err := os.MkdirAll(*resultDir, 0o755); err != nil {
			log.Fatalf("tlrserve: -result-dir: %v", err)
		}
	}
	opt := tlr.BatchOptions{
		Workers:         *workers,
		CacheSize:       *cache,
		TraceStoreBytes: *traceStoreMB << 20,
		TraceDir:        *traceDir,
		ResultDir:       *resultDir,
		MaxInflight:     *maxInflight,
	}
	var cc *cluster.Config
	if *peers != "" {
		if *traceDir == "" {
			// Peer fetches stream into the disk tier; without one every
			// fetched trace would have to be decoded fully into memory.
			log.Fatalf("tlrserve: -peers requires -trace-dir")
		}
		if *self == "" {
			log.Fatalf("tlrserve: -peers requires -self")
		}
		cc = &cluster.Config{
			Self:        strings.TrimRight(*self, "/"),
			Peers:       splitPeers(*peers),
			Replication: *replication,
			ProbeEvery:  *peerProbe,
			RepairEvery: *repairEvery,
			Logf:        log.Printf,
		}
		if *chaosDrop > 0 || *chaosDelay > 0 {
			// Every peer request flows through the fault injector; the
			// flags exist so chaos smoke tests can exercise the repair
			// and breaker paths against a real process.
			inj := cluster.NewInjector(nil)
			if *chaosDelay > 0 {
				inj.Add(&cluster.InjectRule{Delay: *chaosDelay})
			}
			if *chaosDrop > 0 {
				inj.Add(&cluster.InjectRule{Prob: *chaosDrop, Drop: true})
			}
			cc.Client = &http.Client{Transport: inj}
			log.Printf("tlrserve: chaos injection on peer traffic: drop %.2f, delay %s", *chaosDrop, *chaosDelay)
		}
	}
	srv, err := newClusterServer(opt, cc)
	if err != nil {
		log.Fatalf("tlrserve: %v", err)
	}
	if *maxTraceMB > 0 {
		srv.maxTraceBytes = *maxTraceMB << 20
	}
	mux := srv.mux()
	if *withPprof {
		mountPprof(mux)
		log.Printf("tlrserve: pprof enabled at /debug/pprof/")
	}
	if srv.fabric != nil {
		log.Printf("tlrserve: cluster fabric: self %s, %d peers, replication %d",
			srv.fabric.Self(), len(srv.fabric.Peers()), srv.fabric.Replication())
	}
	log.Printf("tlrserve: listening on %s", *addr)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.instrument(mux),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("tlrserve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	log.Printf("tlrserve: shutdown signal; draining (budget %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("tlrserve: shutdown: %v", err)
	}
	replDrained := true
	if srv.fabric != nil {
		if err := srv.fabric.Drain(dctx); err != nil {
			replDrained = false
			log.Printf("tlrserve: replication drain: %v", err)
		}
		srv.fabric.Close()
	}
	st := srv.batcher.Stats()
	srv.batcher.Close()
	replState := "replication drained"
	if !replDrained {
		replState = "replication NOT drained"
	}
	log.Printf("tlrserve: drained: %d requests served, %s; exiting",
		st.Submitted, replState)
}

// splitPeers parses the -peers flag, trimming whitespace and trailing
// slashes so "http://a:1/, http://b:2" and "http://a:1,http://b:2"
// build identical rings.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

type server struct {
	batcher       *tlr.Batcher
	fabric        *cluster.Fabric // nil: single node
	maxTraceBytes int64

	runtimeC *metrics.RuntimeCollector
	hm       httpMetrics
}

func newServer(opt tlr.BatchOptions) *server {
	s := &server{
		batcher:       tlr.NewBatcher(opt),
		maxTraceBytes: 64 << 20,
	}
	s.registerMetrics()
	return s
}

// newClusterServer builds a server, joining the cluster fabric when cc
// is non-nil.  The batcher's PeerFetch and the fabric's ReadTrace
// reference each other, so the fabric is late-bound through a nil-safe
// closure: the batcher is constructed first with a PeerFetch that
// consults the fabric variable, then the fabric is wired to the
// batcher's store — all before the server takes traffic.
func newClusterServer(opt tlr.BatchOptions, cc *cluster.Config) (*server, error) {
	var fab *cluster.Fabric
	if cc != nil {
		opt.PeerFetch = func(digest string, exclude []string) (io.ReadCloser, string, error) {
			if fab == nil {
				return nil, "", nil
			}
			return fab.Fetch(digest, exclude...)
		}
	}
	s := newServer(opt)
	if cc != nil {
		// The fabric's instruments join the batcher's registry, so one
		// /metrics scrape covers both layers.
		cc.Registry = s.batcher.Metrics()
		cc.ReadTrace = func(digest string, w io.Writer) (bool, error) {
			_, ok, err := s.batcher.WriteTraceTo(digest, w)
			return ok, err
		}
		cc.ListDigests = s.batcher.TraceDigests
		var err error
		fab, err = cluster.New(*cc)
		if err != nil {
			s.batcher.Close()
			return nil, err
		}
		s.fabric = fab
	}
	return s, nil
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{digest}", s.handleTraceDownload)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	return mux
}

// admit reserves n in-flight job slots for a simulation-bearing request
// (run, analyze, batch, ingest), shedding load with 429 + Retry-After
// when the -max-inflight budget is exhausted.  Refusing up front keeps
// an overloaded node answering fast — a bounded queue the client can
// back off from — instead of timing everything out.  Trace uploads,
// downloads, replication, and stats are never shed: they are cheap
// relative to simulations and shedding them would fight replication
// and repair.  When ok is false the response has been written.
func (s *server) admit(w http.ResponseWriter, n int) (release func(), ok bool) {
	release, err := s.batcher.Reserve(n)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return nil, false
	}
	return release, true
}

// handleRepair runs one synchronous anti-entropy repair cycle and
// reports what it checked and backfilled — the on-demand twin of the
// -repair-interval loop, for operators and tests that want convergence
// now rather than at the next tick.
func (s *server) handleRepair(w http.ResponseWriter, _ *http.Request) {
	if s.fabric == nil {
		http.Error(w, "not clustered: repair needs -peers", http.StatusBadRequest)
		return
	}
	writeJSON(w, s.fabric.RepairCycle())
}

// --- trace store API ---

// handleTraceUpload streams an uploaded trace file (untrusted input:
// the decoder is fuzzed, size-capped, and validates the embedded
// digest) into the store under its content digest for later
// digest-referenced runs.  The body — chunked or not — is consumed
// incrementally: with a disk tier it spools straight to the
// digest-named file while being validated and digested, and only a
// small version-4 body's validated payload is kept in memory
// (-max-trace-mb still bounds the total bytes it will read).
func (s *server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxTraceBytes)
	info, err := s.batcher.StoreTraceFrom(body)
	if err != nil {
		// Invalid bytes are the client's fault; a store that cannot
		// write (disk full, unwritable -trace-dir) is the server's.
		if errors.Is(err, tracefile.ErrStoreWrite) {
			http.Error(w, "trace store: "+err.Error(), http.StatusInternalServerError)
			return
		}
		http.Error(w, "bad trace: "+err.Error(), http.StatusBadRequest)
		return
	}
	if s.fabric != nil && r.Header.Get(cluster.HeaderReplication) == "" {
		// A client upload: place copies on the digest's other owners.
		// Replica placements arrive with the marker header and are never
		// re-replicated, so copies cannot echo around the ring.
		s.fabric.Replicate(info.Digest)
	}
	writeJSON(w, map[string]any{
		"digest":    info.Digest,
		"records":   info.Records,
		"bytes":     info.Bytes,
		"diskBytes": info.DiskBytes,
		"tier":      info.Tier,
	})
}

func (s *server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	// Tier occupancy comes from the store's own counters (the same
	// numbers /v1/stats reports), not re-derived from the listing.
	st := s.batcher.Stats()
	writeJSON(w, map[string]any{
		"traces": s.batcher.Traces(),
		"tiers": map[string]any{
			"memory": map[string]any{"traces": st.Traces, "bytes": st.TraceBytes},
			"disk":   map[string]any{"traces": st.TraceDisk, "bytes": st.TraceDiskBytes},
			"spills": st.TraceSpills, "promotes": st.TracePromotes,
		},
	})
}

// handleTraceDownload streams a stored trace back as a version-4 trace
// file — straight from the disk tier's file when the trace lives
// there, without decoding it: the other half of the upload/reference
// workflow, so a recording pushed from one host can be pulled,
// inspected and replayed on another (cmd/tlrtrace pull).
func (s *server) handleTraceDownload(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if r.Method == http.MethodHead {
		// Existence probe — the repair loop's owner check.  Answering
		// from the store index avoids opening (or decoding) anything.
		if !s.batcher.HasTrace(digest) {
			http.Error(w, fmt.Sprintf("no stored trace with digest %q", digest), http.StatusNotFound)
			return
		}
		w.Header().Set("X-Trace-Digest", digest)
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Trace-Digest", digest)
	// WriteTraceTo resolves the digest before writing a byte, so a miss
	// — or a disk-tier file that fails to open — can still become a
	// clean error status.
	n, ok, err := s.batcher.WriteTraceTo(digest, w)
	if !ok {
		w.Header().Del("X-Trace-Digest")
		w.Header().Del("Content-Type")
		http.Error(w, fmt.Sprintf("no stored trace with digest %q", digest), http.StatusNotFound)
		return
	}
	if err != nil {
		log.Printf("tlrserve: trace download %s: %v", digest, err)
		if n == 0 {
			w.Header().Del("X-Trace-Digest")
			w.Header().Del("Content-Type")
			http.Error(w, "trace store read failed", http.StatusInternalServerError)
			return
		}
		// Bytes are already out and the body is chunked: returning
		// normally would close the response cleanly and hand the client
		// a truncated trace that looks complete.  Abort the connection
		// instead so the truncation is visible at the transport level.
		panic(http.ErrAbortHandler)
	}
}

// handleIngest converts an uploaded foreign trace — a CSV address trace
// or the "PC op" text format, optionally gzip-compressed — into a
// canonical trace in the store, the foreign twin of POST /v1/traces.
// The format is selected by query parameters:
//
//	POST /v1/ingest?format=csv&addr-col=0&op-col=1   (CSV layout)
//	POST /v1/ingest?format=pc                        (PC-op text)
//
// CSV knobs: addr-col (default 0), op-col, pc-col (-1 = absent, the
// default), comma (single character), header=1, addr-base (0/10/16).
// lenient=1 skips malformed lines instead of failing; the response
// reports {"digest", "records", "lines", "rejected"}.  The converted
// trace is digest-addressed and replicates across a cluster exactly
// like an uploaded one.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	intParam := func(name string, def int) (int, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %q is not an integer", name, v)
		}
		return n, nil
	}
	var format tlr.IngestFormat
	switch q.Get("format") {
	case "", "csv":
		csv := &tlr.CSVFormat{}
		var err error
		if csv.AddrCol, err = intParam("addr-col", 0); err == nil {
			if csv.OpCol, err = intParam("op-col", -1); err == nil {
				if csv.PCCol, err = intParam("pc-col", -1); err == nil {
					csv.AddrBase, err = intParam("addr-base", 0)
				}
			}
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if c := q.Get("comma"); c != "" {
			runes := []rune(c)
			if len(runes) != 1 {
				http.Error(w, fmt.Sprintf("bad comma: %q is not a single character", c), http.StatusBadRequest)
				return
			}
			csv.Comma = runes[0]
		}
		csv.Header = q.Get("header") == "1" || q.Get("header") == "true"
		format.CSV = csv
	case "pc", "pctext":
		format.PCText = &tlr.PCTextFormat{}
	default:
		http.Error(w, fmt.Sprintf("unknown ingest format %q (want csv or pc)", q.Get("format")), http.StatusBadRequest)
		return
	}
	lenient := q.Get("lenient") == "1" || q.Get("lenient") == "true"

	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	body := http.MaxBytesReader(w, r.Body, s.maxTraceBytes)
	digest, st, err := s.batcher.IngestTrace(body, format, tlr.IngestOptions{Lenient: lenient})
	if err != nil {
		http.Error(w, "bad foreign trace: "+err.Error(), http.StatusBadRequest)
		return
	}
	if s.fabric != nil && r.Header.Get(cluster.HeaderReplication) == "" {
		s.fabric.Replicate(digest)
	}
	writeJSON(w, map[string]any{
		"digest":   digest,
		"records":  st.Records,
		"lines":    st.Lines,
		"rejected": st.Rejected,
	})
}

// --- run and batch APIs ---

// maxRequestBytes bounds run/batch request bodies.  A request may carry
// a base64-inlined trace (~4/3 the trace's size), so the bound scales
// with the trace cap plus headroom for the rest of the payload; batches
// inlining several large traces should upload them to /v1/traces and
// reference digests instead.
func (s *server) maxRequestBytes() int64 {
	return 2*s.maxTraceBytes + 8<<20
}

// handleRun executes one request of any kind through the public facade.
// Malformed requests are a 400; a simulation failure is a 200 whose
// result carries the error, mirroring the library's Run contract.  On
// a clustered server, a digest-referenced request whose trace lives
// elsewhere is forwarded to a node that holds it (digest routing); if
// no healthy holder is reachable the run proceeds locally, pulling the
// trace from a peer once and caching it.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req tlr.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxRequestBytes())).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	s.serveRun(w, r, req)
}

// handleAnalyze is POST /v1/run specialised to reuse-distance analysis:
// the "analyze" configuration is implied, so {"trace": {"digest": …}}
// alone analyses a stored (typically ingested) trace over its whole
// length.  A request naming a different kind is a 400; everything else
// — validation, digest routing, caching — matches /v1/run exactly.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req tlr.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxRequestBytes())).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Kind() == "" && req.Analyze == nil {
		req.Analyze = &tlr.AnalyzeConfig{}
	}
	if req.Kind() != tlr.KindAnalyze {
		http.Error(w, fmt.Sprintf("/v1/analyze only runs analyze requests (got kind %q); use /v1/run", req.Kind()), http.StatusBadRequest)
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	s.serveRun(w, r, req)
}

// serveRun executes one decoded request: forwarded to the node holding
// its referenced trace when clustered, locally otherwise.
func (s *server) serveRun(w http.ResponseWriter, r *http.Request, req tlr.Request) {
	if res, ok := s.forwardRun(r, req); ok {
		writeJSON(w, res)
		return
	}
	res, err := s.batcher.Run(r.Context(), req)
	if err != nil && res.Kind == "" {
		// Never submitted: the request failed validation.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.fabric != nil {
		res.Node = s.fabric.Self()
	}
	writeJSON(w, res)
}

// forwardRun routes a digest-referenced run to a node already holding
// the trace.  It declines (ok=false) whenever local execution is the
// right call: not clustered, already-forwarded traffic (one hop only),
// no trace reference, the trace is held locally, or no healthy owner
// is reachable.  A forwarding transport error also falls back to a
// local run — resolution then pulls the trace from a peer and caches
// it, so the request still completes.
func (s *server) forwardRun(r *http.Request, req tlr.Request) (tlr.Result, bool) {
	if s.fabric == nil || r.Header.Get(cluster.HeaderForwarded) != "" || r.Header.Get(cluster.HeaderReplication) != "" {
		return tlr.Result{}, false
	}
	digest := tlr.TraceRefDigest(req.Trace)
	if digest == "" || s.batcher.HasTrace(digest) {
		return tlr.Result{}, false
	}
	target, ok := s.fabric.ForwardTarget(digest)
	if !ok {
		return tlr.Result{}, false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return tlr.Result{}, false
	}
	out, err := s.fabric.PostRun(r.Context(), target, body)
	if err != nil {
		log.Printf("tlrserve: forward run to %s: %v (running locally)", target, err)
		return tlr.Result{}, false
	}
	var res tlr.Result
	if err := json.Unmarshal(out, &res); err != nil {
		log.Printf("tlrserve: forward run to %s: bad response: %v (running locally)", target, err)
		return tlr.Result{}, false
	}
	res.Forwarded = true
	if res.Node == "" {
		res.Node = target
	}
	return res, true
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []tlr.Request `json:"jobs"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxRequestBytes())).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	reqs := req.Jobs
	if len(reqs) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	// A batch charges the admission budget for every job it carries, so
	// one huge batch cannot slip past a budget tuned for single runs.
	release, ok := s.admit(w, len(reqs))
	if !ok {
		return
	}
	defer release()
	// The request context cancels the batch on client disconnect:
	// undispatched jobs are skipped and in-flight simulations stop at
	// their next cancellation check.
	stream, err := s.batcher.StreamBatch(r.Context(), reqs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for res := range stream {
		if s.fabric != nil {
			res.Node = s.fabric.Self()
		}
		if err := enc.Encode(&res); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// --- misc ---

// mountPprof exposes the standard profiling endpoints on the server's
// own mux (the default-mux registrations in net/http/pprof's init do
// not apply here), gated behind -pprof so production deployments opt
// in: profiles expose internals and cost CPU while sampling.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{
		// One flat rendering of tlr.BatchStats: trace-store,
		// result-cache, analytics and admission counters included.
		"service": s.batcher.Stats(),
		// The runtime section reads the same collector behind the go_*
		// gauges /metrics exports, so the two views cannot disagree.
		"runtime": s.runtimeC.Read(),
	}
	if s.fabric != nil {
		out["cluster"] = map[string]any{
			"self":        s.fabric.Self(),
			"peers":       s.fabric.Peers(),
			"replication": s.fabric.Replication(),
			"health":      s.fabric.Health(),
			"fabric":      s.fabric.StatsSnapshot(),
		}
	}
	writeJSON(w, out)
}

func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"workloads": workload.Names()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("tlrserve: write: %v", err)
	}
}
