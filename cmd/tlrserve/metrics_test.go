package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/metrics"
)

// instrumentedServer is testServer with the HTTP middleware wrapped
// around the mux, as main() wires it.
func instrumentedServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := newServer(tlr.BatchOptions{Workers: 2})
	ts := httptest.NewServer(srv.instrument(srv.mux()))
	t.Cleanup(func() {
		ts.Close()
		srv.batcher.Close()
	})
	return ts
}

func scrape(t *testing.T, ts *httptest.Server) []metrics.Sample {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestStatsMatchesMetrics drives traffic through the instrumented
// server and asserts the /v1/stats JSON and the /metrics exposition
// agree — both are views over one registry, so any drift is a wiring
// bug.  It also checks the exposition covers the HTTP, service, trace
// store, and runtime layers.
func TestStatsMatchesMetrics(t *testing.T) {
	ts := instrumentedServer(t)

	// Traffic: two identical runs (one simulated, one cache hit), one
	// 400, one 404 probe.
	for i := 0; i < 2; i++ {
		resp := post(t, ts, "/v1/run", `{"workload": "li", "study": {"budget": 4000, "window": 256}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}
	if resp := post(t, ts, "/v1/run", `{"not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad run: status %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/traces/sha256:na"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing trace: status %d", resp.StatusCode)
		}
	}

	// /v1/stats (typed through the service section).
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Service tlr.BatchStats       `json:"service"`
		Runtime metrics.RuntimeStats `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Runtime.Goroutines <= 0 || stats.Runtime.HeapAllocBytes == 0 {
		t.Errorf("stats runtime section missing or zero: %+v", stats.Runtime)
	}

	samples := scrape(t, ts)
	get := func(name string, pairs ...string) float64 {
		t.Helper()
		s := metrics.Find(samples, name, pairs...)
		if len(s) != 1 {
			t.Fatalf("metrics: want exactly one %s%v sample, got %d", name, pairs, len(s))
		}
		return s[0].Value
	}

	// Service layer: the scrape happened after the stats read, so
	// counters can only have grown; these were quiescent between the
	// two reads.
	if got := get("tlr_jobs_submitted_total"); got != float64(stats.Service.Submitted) {
		t.Errorf("tlr_jobs_submitted_total = %v, /v1/stats said %d", got, stats.Service.Submitted)
	}
	if got := get("tlr_jobs_ran_total"); got != float64(stats.Service.Ran) {
		t.Errorf("tlr_jobs_ran_total = %v, /v1/stats said %d", got, stats.Service.Ran)
	}
	if got := get("tlr_job_cache_hits_total"); got != float64(stats.Service.CacheHits) {
		t.Errorf("tlr_job_cache_hits_total = %v, /v1/stats said %d", got, stats.Service.CacheHits)
	}
	if stats.Service.Ran < 1 || stats.Service.CacheHits < 1 {
		t.Errorf("traffic did not exercise run+cache: %+v", stats.Service)
	}

	// Per-kind histogram: the study run must have been observed.
	if got := get("tlr_job_duration_seconds_count", "kind", "study"); got != float64(stats.Service.Ran) {
		t.Errorf("study duration count = %v, want %d", got, stats.Service.Ran)
	}

	// HTTP layer: routes labeled by pattern, status by class.
	if got := get("tlr_http_requests_total", "route", "POST /v1/run", "code", "2xx"); got != 2 {
		t.Errorf("run 2xx = %v, want 2", got)
	}
	if got := get("tlr_http_requests_total", "route", "POST /v1/run", "code", "4xx"); got != 1 {
		t.Errorf("run 4xx = %v, want 1", got)
	}
	if got := get("tlr_http_requests_total", "route", "GET /v1/traces/{digest}", "code", "4xx"); got != 1 {
		t.Errorf("trace download 4xx = %v, want 1", got)
	}
	if n := get("tlr_http_request_seconds_count", "route", "POST /v1/run"); n != 3 {
		t.Errorf("run latency observations = %v, want 3", n)
	}

	// Store and runtime layers are present in the exposition.
	for _, name := range []string{"tlr_trace_store_traces", "tlr_results_cached", "go_goroutines", "go_memstats_heap_inuse_bytes"} {
		if len(metrics.Find(samples, name)) == 0 {
			t.Errorf("exposition is missing %s", name)
		}
	}
	if got := get("go_goroutines"); got <= 0 {
		t.Errorf("go_goroutines = %v", got)
	}
}

// TestClusterMetricsExposed checks a clustered server's exposition
// includes the fabric instruments on the same registry.
func TestClusterMetricsExposed(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	samples := scrape(t, nodes[0].ts)
	for _, name := range []string{
		"tlr_cluster_replication_queue_depth",
		"tlr_cluster_replications_queued_total",
		"tlr_cluster_peers_healthy",
		"tlr_cluster_breakers_open",
		"tlr_cluster_repair_backfills_total",
	} {
		if len(metrics.Find(samples, name)) == 0 {
			t.Errorf("clustered exposition is missing %s", name)
		}
	}
}
