package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside the program is instrumented.
// They stay in memory and are written out once, when the run ends, so
// recording one costs two clock reads and an append.

// span is one timed call into a layer, one line of
// <workload>.spans.jsonl.  Spans of one cell or request share TraceID;
// Parent is the enclosing span (0 for a root).
type span struct {
	TraceID string `json:"trace_id"`
	SpanID  int64  `json:"span_id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Attrs   attrs  `json:"attrs"`
}

// attrs are a span's counts: records delivered or consumed, bytes moved.
type attrs struct {
	Records int64 `json:"records,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans.  A nil *tracer records nothing, so the traced
// runner also runs untraced, which is how its overhead is measured.
// Spans are kept in fixed-size blocks so that recording one never
// copies the ones before it while other workers wait on the lock.
type tracer struct {
	t0     time.Time
	next   atomic.Int64
	mu     sync.Mutex
	blocks [][]span
}

const spanBlock = 4096

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock: nanoseconds since it was created.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a span that has started and not yet ended.  It is a
// value, and neither starting nor ending one allocates, so a garbage
// collector assist never lands in the gap between two spans and shows up
// as time no layer accounts for.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a root span named name.
func (t *tracer) begin(traceID, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	o := openSpan{t: t, s: span{TraceID: traceID, SpanID: t.next.Add(1), Name: name}}
	o.s.Start = t.now()
	return o
}

// child starts a span under o in o's trace.
func (o *openSpan) child(name string) openSpan {
	if o.t == nil {
		return openSpan{}
	}
	c := openSpan{t: o.t, s: span{TraceID: o.s.TraceID, SpanID: o.t.next.Add(1), Parent: o.s.SpanID, Name: name}}
	c.s.Start = o.t.now()
	return c
}

// end closes the span.
func (o *openSpan) end() { o.endWith(attrs{}) }

// endWith closes the span, attaching its counts.
func (o *openSpan) endWith(a attrs) {
	if o.t == nil {
		return
	}
	o.s.End = o.t.now()
	o.s.Attrs = a
	o.t.add(o.s)
}

// endRecords closes the span, attaching the records it handled.
func (o *openSpan) endRecords(n int64) { o.endWith(attrs{Records: n}) }

// add records a finished span measured elsewhere (client-side request
// phases are timed by the load generator and converted afterwards).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.SpanID == 0 {
		s.SpanID = t.next.Add(1)
	}
	t.mu.Lock()
	if n := len(t.blocks); n == 0 || len(t.blocks[n-1]) == spanBlock {
		t.blocks = append(t.blocks, make([]span, 0, spanBlock))
	}
	last := &t.blocks[len(t.blocks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return out
}

// write stores the spans as JSON lines in dir/<workload>.spans.jsonl.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span to its self time: its duration minus the
// union of its children's intervals, each clipped to the span.  Children
// that overlap one another are counted once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.SpanID] = s.dur() - covered(s, kids[s.SpanID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotal sums the self time and counts of every span with one name.
type layerTotal struct {
	spans   int
	selfNs  int64
	records int64
	bytes   int64
}

// byLayer groups self times by span name.
func byLayer(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.spans++
		lt.selfNs += self[s.SpanID]
		lt.records += s.Attrs.Records
		lt.bytes += s.Attrs.Bytes
	}
	return out
}

// nsPer is a layer's self time per counted record (0 when it counted
// none, which is the layer doing no work on this workload).
func (lt *layerTotal) nsPer() float64 {
	if lt == nil || lt.records == 0 {
		return 0
	}
	return float64(lt.selfNs) / float64(lt.records)
}

// count is how many spans a layer recorded.
func (lt *layerTotal) count() float64 {
	if lt == nil {
		return 0
	}
	return float64(lt.spans)
}

// meanSelf is a layer's mean self time per span in ns.
func (lt *layerTotal) meanSelf() float64 {
	if lt == nil || lt.spans == 0 {
		return 0
	}
	return float64(lt.selfNs) / float64(lt.spans)
}

// checkCoverage fails when the layer spans leave too much of the time of
// the root spans named root unaccounted for: more than maxGap of any one
// root's duration, or of all of them together.  A single root may exceed
// its share by up to gapFloor: a goroutine descheduled for a garbage
// collector or by the host is as likely to stop between two spans as
// inside one, and that says nothing about the layers.
func checkCoverage(spans []span, root string, maxGap float64) error {
	self := selfTimes(spans)
	var gaps, walls int64
	for _, s := range spans {
		if s.Name != root || s.Parent != 0 || s.dur() == 0 {
			continue
		}
		gap := self[s.SpanID]
		gaps += gap
		walls += s.dur()
		if share := float64(gap) / float64(s.dur()); share > maxGap && gap > int64(gapFloor) {
			return fmt.Errorf("%s %s: layer spans cover only %.1f%% of its %.3f ms wall",
				root, s.TraceID, 100*(1-share), float64(s.dur())/1e6)
		}
	}
	if walls > 0 && float64(gaps)/float64(walls) > maxGap {
		return fmt.Errorf("layer spans cover only %.1f%% of the %s spans' time", 100*(1-float64(gaps)/float64(walls)), root)
	}
	return nil
}

const gapFloor = 5 * time.Millisecond
