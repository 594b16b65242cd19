package cluster

import (
	"github.com/tracereuse/tlr/internal/metrics"
)

// registerMetrics exports the fabric on a metrics registry.  The
// mutex-guarded Stats struct stays the single source of truth for
// counters — every exported counter is a Func-backed view over the
// same fields StatsSnapshot serves, and the breaker gauges call the
// same locked count it does, so /metrics and /v1/stats cannot drift
// apart.  Only the latency distributions are native histograms,
// observed on the peer-call paths themselves.
func (f *Fabric) registerMetrics(reg *metrics.Registry) {
	counter := func(name, help string, get func(*Stats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(get(&f.stats))
		})
	}
	counter("tlr_cluster_fetch_attempts_total",
		"Peer trace fetches attempted.",
		func(s *Stats) uint64 { return s.FetchAttempts })
	counter("tlr_cluster_fetch_hits_total",
		"Peer trace fetches that returned the digest.",
		func(s *Stats) uint64 { return s.FetchHits })
	counter("tlr_cluster_fetch_misses_total",
		"Peer trace fetches no reachable peer could serve.",
		func(s *Stats) uint64 { return s.FetchMisses })
	counter("tlr_cluster_fetch_errors_total",
		"Peer trace fetches that failed on every holder.",
		func(s *Stats) uint64 { return s.FetchErrors })
	counter("tlr_cluster_forwards_total",
		"Run requests forwarded to an owning peer.",
		func(s *Stats) uint64 { return s.Forwards })
	counter("tlr_cluster_replications_queued_total",
		"Trace replications enqueued for async delivery.",
		func(s *Stats) uint64 { return s.ReplicationsQueued })
	counter("tlr_cluster_replications_done_total",
		"Trace replications delivered to every other owner.",
		func(s *Stats) uint64 { return s.ReplicationsDone })
	counter("tlr_cluster_replications_failed_total",
		"Trace replications that failed for at least one owner.",
		func(s *Stats) uint64 { return s.ReplicationsFailed })
	counter("tlr_cluster_replications_dropped_total",
		"Trace replications dropped because the queue was full.",
		func(s *Stats) uint64 { return s.ReplicationsDropped })
	counter("tlr_cluster_repair_cycles_total",
		"Anti-entropy repair cycles completed.",
		func(s *Stats) uint64 { return s.RepairCycles })
	counter("tlr_cluster_repair_checks_total",
		"Per-(digest, owner) existence checks performed by repair.",
		func(s *Stats) uint64 { return s.RepairChecks })
	counter("tlr_cluster_repair_backfills_total",
		"Missing replicas re-delivered by the repair loop.",
		func(s *Stats) uint64 { return s.RepairBackfills })
	counter("tlr_cluster_repair_failures_total",
		"Repair backfills that failed.",
		func(s *Stats) uint64 { return s.RepairFailures })
	counter("tlr_cluster_breaker_opens_total",
		"Per-peer circuit breakers opened.",
		func(s *Stats) uint64 { return s.BreakerOpens })
	counter("tlr_cluster_breaker_shed_total",
		"Peer calls shed immediately by an open breaker.",
		func(s *Stats) uint64 { return s.BreakerShed })

	reg.GaugeFunc("tlr_cluster_replication_queue_depth",
		"Replications enqueued and not yet picked up by the worker.",
		func() float64 { return float64(len(f.queue)) })
	reg.GaugeFunc("tlr_cluster_breakers_open",
		"Peers whose circuit breaker is currently open.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.breakersOpenLocked())
		})
	reg.GaugeFunc("tlr_cluster_peers_healthy",
		"Other peers currently considered healthy.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.peers) - f.breakersOpenLocked())
		})

	f.fetchDur = reg.Histogram("tlr_cluster_fetch_seconds",
		"Latency of one peer trace-fetch HTTP call (to response headers).", nil)
	f.replDur = reg.Histogram("tlr_cluster_replicate_seconds",
		"Latency of one replication delivery attempt.", nil)
}
