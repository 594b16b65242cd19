package service

import (
	"github.com/tracereuse/tlr/internal/metrics"
)

// serviceMetrics holds the registry cells behind Stats.  Every traffic
// counter the service keeps IS a registry counter — Stats() reads the
// same atomic cells /metrics renders, so the JSON view and the
// Prometheus exposition cannot disagree.  Derived occupancy numbers
// (cache lengths, trace-store tiers) stay owned by their mutex-guarded
// structures and are exported as Func-backed gauges evaluated at
// scrape time, again from the single source of truth.
type serviceMetrics struct {
	submitted *metrics.Counter
	ran       *metrics.Counter
	derived   *metrics.CounterVec   // per-kind results derived from another job's run
	jobDur    *metrics.HistogramVec // per-kind simulated-job latency
	cacheHits *metrics.Counter
	coalesced *metrics.Counter
	errors    *metrics.Counter
	shed      *metrics.Counter

	traceHits   *metrics.Counter
	traceMisses *metrics.Counter
	peerFetches *metrics.Counter
	peerRejects *metrics.Counter
	spills      *metrics.Counter
	promotes    *metrics.Counter

	resultDiskHits   *metrics.Counter
	resultDiskWrites *metrics.Counter

	analyzeRuns *metrics.Counter
	analyzeHits *metrics.Counter

	ingestedTraces  *metrics.Counter
	ingestedRecords *metrics.Counter
	ingestRejects   *metrics.Counter
}

// registerMetrics creates the service's instrument set on reg.  Called
// once from New, before the Service is shared.
func (s *Service) registerMetrics(reg *metrics.Registry) {
	m := &s.met
	m.submitted = reg.Counter("tlr_jobs_submitted_total",
		"Jobs accepted into batches.")
	m.ran = reg.Counter("tlr_jobs_ran_total",
		"Jobs actually simulated (not cached, coalesced, or canceled).")
	m.derived = reg.CounterVec("tlr_jobs_derived_total",
		"Jobs answered exactly from another job's simulation of their geometry family, by job kind (not counted as ran).",
		"kind")
	m.jobDur = reg.HistogramVec("tlr_job_duration_seconds",
		"Wall-clock latency of simulated jobs, by job kind.",
		nil, "kind")
	m.cacheHits = reg.Counter("tlr_job_cache_hits_total",
		"Jobs answered from the result cache (memory or disk tier).")
	m.coalesced = reg.Counter("tlr_jobs_coalesced_total",
		"Jobs folded onto an identical in-flight run.")
	m.errors = reg.Counter("tlr_job_errors_total",
		"Jobs that completed with an error (including cancellations).")
	m.shed = reg.Counter("tlr_jobs_shed_total",
		"Reservations refused because the in-flight budget was exhausted.")

	m.traceHits = reg.Counter("tlr_trace_hits_total",
		"Trace-store lookups that resolved a digest: one per replay a job (or a stream pass of jobs) opens, none for a job answered from cache.")
	m.traceMisses = reg.Counter("tlr_trace_misses_total",
		"Trace-store lookups for unknown digests.")
	m.peerFetches = reg.Counter("tlr_trace_peer_fetches_total",
		"Traces pulled from cluster peers into the local store.")
	m.peerRejects = reg.Counter("tlr_trace_peer_rejects_total",
		"Peer trace bodies rejected as invalid or digest-mismatched.")
	m.spills = reg.Counter("tlr_trace_spills_total",
		"Traces written through to the disk tier.")
	m.promotes = reg.Counter("tlr_trace_promotes_total",
		"Disk-tier hits decoded back into the memory tier.")

	m.resultDiskHits = reg.Counter("tlr_result_disk_hits_total",
		"Jobs answered from the persistent result cache.")
	m.resultDiskWrites = reg.Counter("tlr_result_disk_writes_total",
		"Results written through to the persistent result cache.")

	m.analyzeRuns = reg.Counter("tlr_analyze_runs_total",
		"Reuse-distance analyses actually computed.")
	m.analyzeHits = reg.Counter("tlr_analyze_hits_total",
		"Reuse-distance analyses answered from cache or coalesced.")

	m.ingestedTraces = reg.Counter("tlr_ingested_traces_total",
		"Foreign traces ingested into the store.")
	m.ingestedRecords = reg.Counter("tlr_ingested_records_total",
		"Canonical records produced by foreign-trace ingestion.")
	m.ingestRejects = reg.Counter("tlr_ingest_rejects_total",
		"Malformed foreign trace lines dropped in lenient mode.")

	// Occupancy and admission gauges: evaluated at scrape time from the
	// structures that own the numbers, under the same lock Stats uses.
	reg.GaugeFunc("tlr_inflight_jobs",
		"Jobs currently reserved via admission control.",
		func() float64 { return float64(s.load.Load()) })
	reg.GaugeFunc("tlr_max_inflight_jobs",
		"Admission budget (0 = unlimited).",
		func() float64 { return float64(s.maxInflight) })
	reg.GaugeFunc("tlr_programs_cached",
		"Assembled programs currently in the program LRU.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.programs.len())
		})
	reg.GaugeFunc("tlr_results_cached",
		"Job results currently in the in-memory result LRU.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.results.len())
		})
	reg.GaugeFunc("tlr_results_on_disk",
		"Results in the persistent result cache.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.resultDisk == nil {
				return 0
			}
			return float64(s.resultDisk.len())
		})

	stores := reg.GaugeVec("tlr_trace_store_traces",
		"Recorded traces held, by store tier.", "tier")
	stores.WithFunc(func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.traces.len())
	}, "memory")
	stores.WithFunc(func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.traces.diskLen())
	}, "disk")
	storeBytes := reg.GaugeVec("tlr_trace_store_bytes",
		"Bytes held by the trace store, by tier (encoded in memory, file bytes on disk).", "tier")
	storeBytes.WithFunc(func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.traces.bytes)
	}, "memory")
	storeBytes.WithFunc(func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.traces.diskBytes)
	}, "disk")
}

// jobKind labels a job for the per-kind instruments; jobs submitted
// without a kind (direct library users) fall into "other".
func jobKind(j Job) string {
	if j.Kind == "" {
		return "other"
	}
	return j.Kind
}
