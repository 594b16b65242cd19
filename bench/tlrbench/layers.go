package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/analytics"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/expt"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// The traced runner runs a batch cell through the layers in the order
// the service does — resolve, open, skip, then chunks of records (decode
// or execute into a buffer, then the engine), result, marshal — with a
// span around each call.  It calls the same public functions the job
// bodies in internal/service and internal/expt call, so its results must
// equal theirs; every traced run checks that they do.

// chunkLen is how many records one decode or execute call fills before
// the engine consumes them: large enough that two clock reads per chunk
// cost nothing measurable, small enough that a chunk buffer
// (chunkLen records of ~100 bytes) stays a few MiB.
const chunkLen = 64 << 10

var chunkPool = sync.Pool{New: func() any { b := make([]trace.Exec, chunkLen); return &b }}

// cellKind names what a cell computes.
type cellKind string

const (
	kindMeasure cellKind = "measure" // expt's eight-engine limit-study pass (sweep-live)
	kindStudy   cellKind = "study"
	kindRTM     cellKind = "rtm"
	kindVP      cellKind = "vp"
	kindAnalyze cellKind = "analyze"
)

// cellSpec is one batch cell: a stream (a program executed live, or a
// stored trace replayed by digest) and what to compute over it.
type cellSpec struct {
	id           string
	kind         cellKind
	window       int        // study and vp window
	rtm          rtm.Config // rtm cells
	skip, budget uint64
	measure      expt.Config // measure cells: budget, skip and window

	prog   *isa.Program // live source
	digest string       // trace source, resolved in the runner's service
}

// recordSource is where a traced cell's records come from.
type recordSource interface {
	// skip advances past n records of warm-up.
	skip(parent *openSpan, n uint64) error
	// fill stores the next records into buf, returning how many (0 at the
	// end of the stream).
	fill(parent *openSpan, buf []trace.Exec) (int, error)
	close()
}

// liveSource executes a program on the functional simulator.
type liveSource struct {
	ctx context.Context
	c   *cpu.CPU
}

func (s *liveSource) skip(parent *openSpan, n uint64) error {
	sp := parent.child("cpu.skip")
	got, err := s.c.RunContext(s.ctx, n, nil)
	sp.endRecords(int64(got))
	return err
}

func (s *liveSource) fill(parent *openSpan, buf []trace.Exec) (int, error) {
	sp := parent.child("cpu.run")
	i := 0
	_, err := s.c.RunContext(s.ctx, uint64(len(buf)), func(e *trace.Exec) {
		buf[i] = *e
		i++
	})
	sp.endRecords(int64(i))
	return i, err
}

func (s *liveSource) close() {}

// streamSource replays a recorded stream.  A decoded batch larger than
// the space left in the caller's buffer is kept (it stays valid until
// the next stream call) and delivered first by the next fill.
type streamSource struct {
	st      trace.Stream
	pending []trace.Exec
}

func (s *streamSource) skip(parent *openSpan, n uint64) error {
	sp := parent.child("tracefile.skip")
	got, err := s.skipRaw(n)
	sp.endRecords(int64(got))
	return err
}

func (s *streamSource) skipRaw(n uint64) (uint64, error) {
	k := min(n, uint64(len(s.pending)))
	s.pending = s.pending[k:]
	if k == n {
		return n, nil
	}
	got, err := s.st.Skip(n - k)
	return k + got, err
}

func (s *streamSource) fill(parent *openSpan, buf []trace.Exec) (int, error) {
	sp := parent.child("tracefile.decode")
	i := copy(buf, s.pending)
	s.pending = s.pending[i:]
	var err error
	for i < len(buf) {
		var batch []trace.Exec
		batch, err = s.st.NextBatch()
		if err != nil {
			break
		}
		k := copy(buf[i:], batch)
		s.pending = batch[k:]
		i += k
	}
	if err == io.EOF {
		err = nil
	}
	sp.endRecords(int64(i))
	return i, err
}

func (s *streamSource) close() { s.st.Close() }

// chunkStream is the trace.Stream rtm.Replay pulls from in a traced
// cell: it serves a chunk buffer filled by its source, refilling when
// the engine reaches the end, and never fills past the cell's budget.
type chunkStream struct {
	src    *streamSource
	parent *openSpan
	buf    []trace.Exec
	left   uint64 // records the cell may still consume
}

func (c *chunkStream) NextBatch() ([]trace.Exec, error) {
	k := min(uint64(len(c.buf)), c.left)
	if k == 0 {
		return nil, io.EOF
	}
	n, err := c.src.fill(c.parent, c.buf[:k])
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, io.EOF
	}
	c.left -= uint64(n)
	return c.buf[:n], nil
}

// Skip is the engine skipping a reused trace that spills past the
// served chunk.
func (c *chunkStream) Skip(n uint64) (uint64, error) {
	n = min(n, c.left)
	got, err := c.src.skipRaw(n)
	c.left -= got
	return got, err
}

func (c *chunkStream) Close() {}

// tracedCell runs one cell under root, using buf for chunks, and returns
// its result encoded as the server would send it, for comparison with
// the untraced run.
func tracedCell(ctx context.Context, root *openSpan, svc *service.Service, c cellSpec, buf []trace.Exec) ([]byte, error) {
	var src recordSource
	var stream *streamSource
	if c.prog != nil {
		sp := root.child("cpu.new")
		src = &liveSource{ctx: ctx, c: cpu.New(c.prog)}
		sp.end()
	} else {
		sp := root.child("service.resolve")
		h, ok := svc.ResolveTrace(c.digest)
		sp.end()
		if !ok {
			return nil, fmt.Errorf("cell %s: trace %s not in store", c.id, c.digest)
		}
		sp = root.child("tracefile.open")
		st, err := h.Open()
		if err == nil {
			stream = &streamSource{st: st}
			src = stream
		}
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	defer src.close()
	skip := c.skip
	if c.kind == kindMeasure {
		skip = c.measure.Skip
	}
	if skip > 0 {
		if err := src.skip(root, skip); err != nil {
			return nil, err
		}
	}

	var value any
	var err error
	switch c.kind {
	case kindMeasure:
		value, err = tracedMeasure(root, src, c, buf)
	case kindRTM:
		value, err = tracedRTM(ctx, root, src, stream, c, buf)
	default:
		value, err = tracedStream(root, src, c, buf)
	}
	if err != nil {
		return nil, err
	}
	sp := root.child("marshal")
	b, err := json.Marshal(value)
	sp.end()
	return b, err
}

// pump feeds up to budget records from src to consume one chunk at a
// time, timing each consume as engine.
func pump(root *openSpan, src recordSource, budget uint64, buf []trace.Exec, engine string, consume func([]trace.Exec)) (uint64, error) {
	var done uint64
	for done < budget {
		k := min(uint64(len(buf)), budget-done)
		n, err := src.fill(root, buf[:k])
		if err != nil {
			return done, err
		}
		if n == 0 {
			break
		}
		sp := root.child(engine)
		consume(buf[:n])
		sp.endRecords(int64(n))
		done += uint64(n)
	}
	return done, nil
}

// tracedStream computes a study, vp or analyze cell, returning the
// public Result the service path would produce.
func tracedStream(root *openSpan, src recordSource, c cellSpec, buf []trace.Exec) (any, error) {
	res := tlr.Result{ID: c.id, Kind: tlr.Kind(c.kind)}
	switch c.kind {
	case kindStudy:
		sp := root.child("core.study")
		hist := core.NewHistory()
		ilr := core.NewILRStudy(core.ILRConfig{Window: c.window, Latencies: []float64{1}})
		tlrS := core.NewTLRStudy(core.TLRConfig{Window: c.window, Variants: []core.Latency{core.ConstLatency(1)}})
		sp.end()
		if _, err := pump(root, src, c.budget, buf, "core.study", func(recs []trace.Exec) {
			for i := range recs {
				e := &recs[i]
				reusable := hist.Observe(e)
				ilr.ConsumeClassified(e, reusable)
				tlrS.ConsumeClassified(e, reusable)
			}
		}); err != nil {
			return nil, err
		}
		sp = root.child("result")
		ilr.Finish()
		tlrS.Finish()
		res.Study = &tlr.StudyResult{ILR: ilr.Result(), TLR: tlrS.Result()}
		sp.end()
	case kindVP:
		sp := root.child("core.vp")
		s := core.NewVPStudy(core.VPConfig{Window: c.window})
		sp.end()
		if _, err := pump(root, src, c.budget, buf, "core.vp", func(recs []trace.Exec) {
			for i := range recs {
				s.Consume(&recs[i])
			}
		}); err != nil {
			return nil, err
		}
		sp = root.child("result")
		s.Finish()
		r := s.Result()
		res.VP = &r
		sp.end()
	case kindAnalyze:
		sp := root.child("analytics")
		a := analytics.New()
		sp.end()
		if _, err := pump(root, src, c.budget, buf, "analytics", func(recs []trace.Exec) {
			for i := range recs {
				a.Consume(&recs[i])
			}
		}); err != nil {
			return nil, err
		}
		sp = root.child("result")
		r := a.Result()
		res.Analyze = &r
		sp.end()
	default:
		return nil, fmt.Errorf("cell %s: unknown kind %q", c.id, c.kind)
	}
	return res, nil
}

// tracedRTM computes an RTM cell: the coupled simulator for a live
// source, the replay engine over a chunked stream otherwise.
func tracedRTM(ctx context.Context, root *openSpan, src recordSource, stream *streamSource, c cellSpec, buf []trace.Exec) (any, error) {
	var r rtm.Result
	var err error
	if live, ok := src.(*liveSource); ok {
		sp := root.child("rtm.sim")
		r, err = rtm.NewSim(c.rtm, live.c).RunContext(ctx, c.budget)
		sp.endRecords(int64(c.budget))
		// The Figure-9 grid's cells are bare rtm.Results: no result to
		// build.
		return r, err
	}
	sp := root.child("rtm.replay")
	cs := &chunkStream{src: stream, parent: &sp, buf: buf, left: c.budget}
	r, err = rtm.NewReplay(c.rtm, cs).RunContext(ctx, c.budget)
	sp.endRecords(int64(c.budget))
	if err != nil {
		return nil, err
	}
	sp = root.child("result")
	res := tlr.Result{ID: c.id, Kind: tlr.KindRTM, RTM: &r}
	sp.end()
	return res, nil
}

// tracedMeasure computes expt's eight-engine limit-study pass for one
// workload (the engines of expt.MeasureWith, fed chunk by chunk), with
// the value-prediction engine timed apart from the reuse engines.
func tracedMeasure(root *openSpan, src recordSource, c cellSpec, buf []trace.Exec) (any, error) {
	cfg := c.measure
	sp := root.child("core.study")
	one := []core.Latency{core.ConstLatency(1)}
	lats := []float64{1, 2, 3, 4}
	variants := []core.Latency{core.ConstLatency(1), core.ConstLatency(2), core.ConstLatency(3), core.ConstLatency(4)}
	for _, k := range []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		variants = append(variants, core.PropLatency(k))
	}
	hist := core.NewHistory()
	ilrInf := core.NewILRStudy(core.ILRConfig{Window: 0, Latencies: lats})
	ilrWin := core.NewILRStudy(core.ILRConfig{Window: cfg.Window, Latencies: lats})
	tlrInf := core.NewTLRStudy(core.TLRConfig{Window: 0, Variants: one})
	tlrWin := core.NewTLRStudy(core.TLRConfig{Window: cfg.Window, Variants: variants})
	tlrBlk := core.NewTLRStudy(core.TLRConfig{Window: cfg.Window, Variants: one, BlockBounded: true})
	tlrCap := core.NewTLRStudy(core.TLRConfig{Window: cfg.Window, Variants: one, MaxRunLen: 16})
	tlrStr := core.NewTLRStudy(core.TLRConfig{Window: cfg.Window, Variants: one, MaxRunLen: 16, Strict: true})
	vpWin := core.NewVPStudy(core.VPConfig{Window: cfg.Window})
	sp.end()

	var done uint64
	for done < cfg.Budget {
		k := min(uint64(len(buf)), cfg.Budget-done)
		n, err := src.fill(root, buf[:k])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%s: halted after %d of %d instructions", c.id, done, cfg.Budget)
		}
		recs := buf[:n]
		sp = root.child("core.study")
		for i := range recs {
			e := &recs[i]
			reusable := hist.Observe(e)
			ilrInf.ConsumeClassified(e, reusable)
			ilrWin.ConsumeClassified(e, reusable)
			tlrInf.ConsumeClassified(e, reusable)
			tlrWin.ConsumeClassified(e, reusable)
			tlrBlk.ConsumeClassified(e, reusable)
			tlrCap.ConsumeClassified(e, reusable)
			tlrStr.ConsumeClassified(e, reusable)
		}
		sp.endRecords(int64(n))
		sp = root.child("core.vp")
		for i := range recs {
			vpWin.Consume(&recs[i])
		}
		sp.endRecords(int64(n))
		done += uint64(n)
	}
	sp = root.child("result")
	for _, s := range []*core.TLRStudy{tlrInf, tlrWin, tlrBlk, tlrCap, tlrStr} {
		s.Finish()
	}
	ilrInf.Finish()
	ilrWin.Finish()
	vpWin.Finish()
	w, ok := workload.ByName(c.id)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.id)
	}
	m := &expt.Measurement{
		Name: c.id, Category: w.Category, ILRInf: ilrInf.Result(), ILRWin: ilrWin.Result(),
		TLRInf: tlrInf.Result(), TLRWin: tlrWin.Result(), TLRBlock: tlrBlk.Result(),
		TLRCap16: tlrCap.Result(), TLRStrict16: tlrStr.Result(), VPWin: vpWin.Result(),
	}
	sp.end()
	return m, nil
}

// heapSampler tracks the peak live heap across samples.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	s    []metrics.Sample
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, h.s[0].Value.Uint64())
	}
}

func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// recordTraced records budget instructions of prog after skip, timing
// execution and encoding separately (what tlr.Record does in one
// callback).
func recordTraced(ctx context.Context, root *openSpan, prog *isa.Program, skip, budget uint64) (*tracefile.Trace, error) {
	bufp := chunkPool.Get().(*[]trace.Exec)
	defer chunkPool.Put(bufp)
	src := &liveSource{ctx: ctx, c: cpu.New(prog)}
	if skip > 0 {
		if err := src.skip(root, skip); err != nil {
			return nil, err
		}
	}
	rec := tracefile.NewRecorder()
	if _, err := pump(root, src, budget, *bufp, "tracefile.record", func(recs []trace.Exec) {
		for i := range recs {
			rec.Write(&recs[i])
		}
	}); err != nil {
		return nil, err
	}
	sp := root.child("tracefile.record")
	t := rec.Trace()
	sp.end()
	return t, nil
}
