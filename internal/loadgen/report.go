package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the JSON artifact of one load run: the client-side view
// (throughput, per-kind latency percentiles) plus the server-side view
// sampled from /metrics during the run.
type Report struct {
	Server        string  `json:"server"`
	Mode          string  `json:"mode"` // "closed" or "open"
	Workload      string  `json:"workload"`
	Workers       int     `json:"workers"`
	Seconds       float64 `json:"seconds"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	ThroughputRPS float64 `json:"throughputRPS"`
	// TicksDropped counts open-loop requests the schedule offered while
	// the backlog of due, unsent requests was full: never issued, so in
	// no latency figure.  Zero in closed loop.
	TicksDropped uint64                `json:"ticksDropped"`
	Kinds        map[string]KindReport `json:"kinds"`
	Scrape       *ScrapeReport         `json:"scrape,omitempty"`
}

// KindReport summarises one request kind's client-side samples.
type KindReport struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanMs   float64 `json:"meanMs"`
	P50Ms    float64 `json:"p50Ms"`
	P95Ms    float64 `json:"p95Ms"`
	P99Ms    float64 `json:"p99Ms"`
	MaxMs    float64 `json:"maxMs"`
}

// ScrapeReport is what the periodic /metrics scrapes observed: process
// ceilings for the leak gates, and the server's own 5xx count so a
// load run can assert clean traffic even for requests it did not
// issue itself.
type ScrapeReport struct {
	Scrapes             int     `json:"scrapes"`
	GoroutinesMax       float64 `json:"goroutinesMax"`
	HeapInuseMaxBytes   float64 `json:"heapInuseMaxBytes"`
	HeapInuseFirstBytes float64 `json:"heapInuseFirstBytes"`
	HeapInuseLastBytes  float64 `json:"heapInuseLastBytes"`
	HTTP5xx             float64 `json:"http5xx"`
	ScrapeErrors        int     `json:"scrapeErrors"`
}

// WriteJSON writes the indented report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MaxP99Ms reports the worst p99 across the kinds that saw traffic.
func (r *Report) MaxP99Ms() float64 {
	var max float64
	for _, k := range r.Kinds {
		if k.P99Ms > max {
			max = k.P99Ms
		}
	}
	return max
}

// Gates are pass/fail thresholds applied to a finished report; zero
// fields are not checked.
type Gates struct {
	// MaxP99Ms caps the p99 latency of the named kind (or every kind
	// when Kind is empty).
	MaxP99Ms float64
	Kind     string
	// MaxErrors caps client-observed request failures.
	MaxErrors uint64
	// Max5xx caps the server-side 5xx count observed via /metrics.
	Max5xx float64
	// MaxGoroutines caps the goroutine ceiling observed via /metrics.
	MaxGoroutines float64
	// MaxHeapGrowth caps heap growth as last/first (e.g. 3.0 means the
	// final heap-in-use may be at most 3x the first sample).
	MaxHeapGrowth float64
}

// Check applies the gates and returns every violation.
func (g Gates) Check(r *Report) []string {
	var bad []string
	if g.MaxP99Ms > 0 {
		if g.Kind != "" {
			if k, ok := r.Kinds[g.Kind]; ok && k.P99Ms > g.MaxP99Ms {
				bad = append(bad, fmt.Sprintf("%s p99 %.1fms > %.1fms", g.Kind, k.P99Ms, g.MaxP99Ms))
			}
		} else if p := r.MaxP99Ms(); p > g.MaxP99Ms {
			bad = append(bad, fmt.Sprintf("worst p99 %.1fms > %.1fms", p, g.MaxP99Ms))
		}
	}
	if r.Errors > g.MaxErrors {
		bad = append(bad, fmt.Sprintf("%d client errors > %d allowed", r.Errors, g.MaxErrors))
	}
	if s := r.Scrape; s != nil {
		if s.HTTP5xx > g.Max5xx {
			bad = append(bad, fmt.Sprintf("%.0f server 5xx > %.0f allowed", s.HTTP5xx, g.Max5xx))
		}
		if g.MaxGoroutines > 0 && s.GoroutinesMax > g.MaxGoroutines {
			bad = append(bad, fmt.Sprintf("goroutine ceiling %.0f > %.0f", s.GoroutinesMax, g.MaxGoroutines))
		}
		if g.MaxHeapGrowth > 0 && s.HeapInuseFirstBytes > 0 {
			growth := s.HeapInuseLastBytes / s.HeapInuseFirstBytes
			if growth > g.MaxHeapGrowth {
				bad = append(bad, fmt.Sprintf("heap grew %.2fx > %.2fx allowed", growth, g.MaxHeapGrowth))
			}
		}
	}
	return bad
}
