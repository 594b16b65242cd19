// Package metrics is the repository's dependency-free time-series
// instrumentation layer: counters, gauges and fixed-bucket histograms
// collected in a Registry and exposed in the Prometheus text format.
//
// The package exists so every layer — the batch service, the cluster
// fabric, the HTTP front door — records into one shared registry, and
// every read-side view (GET /metrics, /v1/stats, the tlrload report)
// derives from the same underlying cells: two endpoints can never
// disagree about a counter because there is only one counter.
//
// Updates are lock-cheap: a Counter or Gauge is one atomic word, a
// Histogram observation is two atomic adds plus a CAS on the sum.
// Registration takes the registry lock; the hot path never does.
// Derived values (queue depths, occupancy, runtime stats) register as
// func-backed cells evaluated at scrape time, so a data structure
// guarded by its own mutex stays the single source of truth.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing cell.  When fn is non-nil the
// counter is func-backed: its value is computed at scrape time from an
// external source of truth (which must itself be monotonic) and Add
// must not be used.
type Counter struct {
	v  atomic.Uint64
	fn func() float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c.fn != nil {
		panic("metrics: Add on a func-backed counter")
	}
	c.v.Add(n)
}

// Value returns the current count.  Func-backed counters evaluate
// their function; values are truncated toward zero.
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return uint64(c.fn())
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(float64(c.Value())))
}

// Gauge is a cell that can go up and down.  When fn is non-nil the
// gauge is func-backed and Set/Add must not be used.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g.fn != nil {
		panic("metrics: Set on a func-backed gauge")
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (which may be negative) to the gauge.
func (g *Gauge) Add(d float64) {
	if g.fn != nil {
		panic("metrics: Add on a func-backed gauge")
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Histogram is a fixed-bucket distribution.  Buckets are cumulative in
// exposition (Prometheus convention); internally each cell counts one
// half-open interval, so an observation is a single atomic add on its
// bucket plus count/sum updates — no lock, no allocation.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefLatencyBuckets are the default request-latency bucket bounds in
// seconds: 100µs to 10s, roughly 2.5x apart — wide enough to hold both
// a cache hit and a cold multi-second simulation.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Few buckets and a predictable scan beat a binary search here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly within the winning bucket; the open
// +Inf bucket reports its lower bound.  Zero observations yield 0.
func (h *Histogram) Quantile(q float64) float64 {
	les := make([]float64, 0, len(h.bounds)+1)
	cum := make([]float64, 0, len(h.bounds)+1)
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		if i < len(h.bounds) {
			les = append(les, h.bounds[i])
		} else {
			les = append(les, math.Inf(1))
		}
		cum = append(cum, float64(run))
	}
	return QuantileFromBuckets(les, cum, q)
}

// QuantileFromBuckets estimates the q-quantile from a cumulative
// Prometheus-style bucket vector: les are the "le" upper bounds
// (ascending, +Inf last) and cum the cumulative counts at each bound.
// It interpolates linearly within the winning bucket, reports the
// lower bound for the open +Inf bucket, and returns 0 when there are
// no observations.  tlrload uses it to turn a scraped histogram into
// p50/p95/p99.
func QuantileFromBuckets(les, cum []float64, q float64) float64 {
	if len(les) == 0 || len(les) != len(cum) {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	for i := range les {
		if cum[i] >= rank {
			lower, prev := 0.0, 0.0
			if i > 0 {
				lower, prev = les[i-1], cum[i-1]
			}
			if math.IsInf(les[i], 1) {
				return lower
			}
			in := cum[i] - prev
			if in <= 0 {
				return les[i]
			}
			return lower + (les[i]-lower)*(rank-prev)/in
		}
	}
	return les[len(les)-1]
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	// _bucket lines carry the le label alongside the family's own.
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		sep := labels
		if sep == "" {
			sep = fmt.Sprintf("{le=%q}", le)
		} else {
			sep = labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", le)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep, run)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// child is any cell that can render itself.
type child interface {
	write(w io.Writer, name, labels string)
}

// family is one named metric: HELP, TYPE, label keys, and one child
// per label-value combination ("" for the unlabeled singleton).
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]child
	order    []string // insertion-keyed, sorted at scrape
}

func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// labelKey joins label values unambiguously (values may contain commas).
func labelKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s,", len(v), v)
	}
	return b.String()
}

func splitLabelKey(key string) []string {
	var out []string
	for len(key) > 0 {
		i := strings.IndexByte(key, ':')
		n, _ := strconv.Atoi(key[:i])
		out = append(out, key[i+1:i+1+n])
		key = key[i+1+n+1:]
	}
	return out
}

func (f *family) labelString(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := splitLabelKey(key)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes \, " and newline the way the exposition format wants.
		fmt.Fprintf(&b, "%s=%q", k, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a set of metric families.  Registration methods are
// idempotent: asking for an existing name returns the existing family
// (names must keep their type, labels and buckets, or they panic —
// a name collision across packages is a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]child),
	}
	r.families[name] = f
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return f
}

func validName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return name != ""
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.child(nil, func() child { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is computed at scrape
// time by fn, which must be monotonic.  Use it when another data
// structure (guarded its own way) is the source of truth.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeCounter, nil, nil)
	f.child(nil, func() child { return &Counter{fn: fn} })
}

// CounterVec registers a labeled counter family; With returns the cell
// for one label-value combination.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns (creating on first use) the counter for the given label
// values, which must match the family's label count.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	return f.child(nil, func() child { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time by
// fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.child(nil, func() child { return &Gauge{fn: fn} })
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns (creating on first use) the gauge for the given label
// values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() child { return &Gauge{} }).(*Gauge)
}

// WithFunc registers a func-backed gauge cell for the given label
// values.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	v.f.child(values, func() child { return &Gauge{fn: fn} })
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.family(name, help, typeHistogram, nil, bounds)
	return f.child(nil, func() child { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec registers a labeled histogram family with the given
// bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, bounds)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns (creating on first use) the histogram for the given
// label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() child { return newHistogram(v.f.bounds) }).(*Histogram)
}

// WritePrometheus renders every family in the Prometheus text format:
// families sorted by name, each with its HELP and TYPE line, children
// sorted by label values, histograms with cumulative buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		rendered := make([]string, len(keys))
		for i, k := range keys {
			rendered[i] = f.labelString(k)
		}
		sort.Sort(&childSort{labels: rendered, children: children})
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i, c := range children {
			c.write(w, f.name, rendered[i])
		}
	}
	return nil
}

type childSort struct {
	labels   []string
	children []child
}

func (s *childSort) Len() int           { return len(s.labels) }
func (s *childSort) Less(i, j int) bool { return s.labels[i] < s.labels[j] }
func (s *childSort) Swap(i, j int) {
	s.labels[i], s.labels[j] = s.labels[j], s.labels[i]
	s.children[i], s.children[j] = s.children[j], s.children[i]
}

// Value returns the current value of the named metric cell: a
// counter's count, a gauge's level, or a histogram's observation
// count.  Label values must match the family's label keys in
// registration order.  It is the read-side hook /v1/stats-style JSON
// views use so they report exactly what /metrics exports.  A name or
// label combination that was never registered returns (0, false).
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	c, ok := f.children[labelKey(labelValues)]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch m := c.(type) {
	case *Counter:
		return float64(m.Value()), true
	case *Gauge:
		return m.Value(), true
	case *Histogram:
		return float64(m.Count()), true
	}
	return 0, false
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips, integers without a point.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
