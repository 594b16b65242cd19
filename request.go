package tlr

import (
	"context"
	"errors"
	"fmt"

	"github.com/tracereuse/tlr/internal/analytics"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/workload"
)

// This file is the unified public API: one context-aware Request/Run
// model covering all four simulation kinds (limit Study, realistic RTM,
// execution-driven Pipeline, value-prediction limit).  Run, RunBatch and
// StreamBatch are the only entry points.  All three route through the
// batch service, so identical requests — within a batch, across batches,
// or across callers — are simulated once and answered from cache.

// Kind names one of the four simulation kinds a Request can carry.
type Kind string

// The four simulation kinds.
const (
	// KindStudy is the reuse limit study of Figures 3–8 (instruction- and
	// trace-level reuse with infinite tables).
	KindStudy Kind = "study"
	// KindRTM is the realistic finite Reuse Trace Memory simulation of
	// Figure 9.
	KindRTM Kind = "rtm"
	// KindPipeline is the execution-driven superscalar pipeline model
	// (the paper's Figure 2 processor).
	KindPipeline Kind = "pipeline"
	// KindVP is the last-value-prediction limit study (the §1
	// speculation-vs-reuse comparison).
	KindVP Kind = "vp"
	// KindAnalyze is the reuse-distance analysis: exact binned LRU stack
	// distances per operand-location class over the request's stream.
	KindAnalyze Kind = "analyze"
)

// VPConfig configures a value-prediction limit study (KindVP): Window
// is the instruction window size (0 = infinite) and PredLat the cycles
// until predicted values are available (0 = the default of 1).  The
// instruction bounds come from the Request's Skip and Budget.
type VPConfig = core.VPConfig

// AnalyzeConfig configures a reuse-distance analysis (KindAnalyze).
// The empty config is valid: the analysis has no knobs yet (bins and
// classes are fixed by the figure it reproduces), and the struct exists
// so future knobs stay additive.  The stream bounds come from the
// Request's Skip and Budget; uniquely among the kinds, a trace-sourced
// analyze request may leave Budget zero, which means "the rest of the
// recording".
type AnalyzeConfig struct{}

// AnalyzeResult is a completed reuse-distance analysis: one binned
// histogram per operand-location class (see internal/analytics).
type AnalyzeResult = analytics.Result

// Request is one simulation of any kind.
//
// Exactly one program field (Workload, Source, Prog or Trace) and
// exactly one configuration field (Study, RTM, Pipeline, VP or Analyze)
// must be set.  Skip and Budget bound RTM, Pipeline and VP simulations; Study
// carries its own bounds inside StudyConfig (set one or the other, not
// both — a Study config with zero Budget and Skip inherits the
// Request's).
//
// A Trace source stands in for the program in the trace-driven kinds
// (Study, RTM, VP): the engines consume the recorded stream instead of
// executing, and Skip counts records of that stream.  Pipeline is
// execution-driven and rejects trace sources with ErrTraceUnsupported.
type Request struct {
	// ID is an opaque label echoed in the Result (defaults to the
	// request's batch index).
	ID string

	// Workload names a built-in benchmark (see Workloads).
	Workload string
	// Source is assembly text, assembled through the service's program
	// cache.
	Source string
	// Prog is an already-assembled program.
	Prog *Program
	// Trace is a recorded instruction stream (see Record, TraceFile,
	// TraceRef) for the trace-driven kinds.
	Trace TraceSource

	// Study runs the reuse limit studies (KindStudy).
	Study *StudyConfig
	// RTM runs a realistic RTM simulation (KindRTM).
	RTM *RTMConfig
	// Pipeline runs the execution-driven processor model (KindPipeline).
	Pipeline *PipelineConfig
	// VP runs the value-prediction limit study (KindVP).
	VP *VPConfig
	// Analyze runs the reuse-distance analysis (KindAnalyze).
	Analyze *AnalyzeConfig

	// Skip is executed before measurement starts; Budget is the number
	// of retired instructions to simulate.  See the struct comment for
	// how Study interacts with these.
	Skip, Budget uint64
}

// Kind reports the request's simulation kind, or "" if the request does
// not have exactly one configuration set.
func (r Request) Kind() Kind {
	var k Kind
	n := 0
	if r.Study != nil {
		k, n = KindStudy, n+1
	}
	if r.RTM != nil {
		k, n = KindRTM, n+1
	}
	if r.Pipeline != nil {
		k, n = KindPipeline, n+1
	}
	if r.VP != nil {
		k, n = KindVP, n+1
	}
	if r.Analyze != nil {
		k, n = KindAnalyze, n+1
	}
	if n != 1 {
		return ""
	}
	return k
}

// Result is one finished Request.  Exactly the field matching Kind is
// set (none on error).
type Result struct {
	// Index is the request's position in the submitted slice; RunBatch
	// results are ordered by it, StreamBatch results carry it so clients
	// can reassemble deterministic order.
	Index int
	ID    string
	Kind  Kind

	Study    *StudyResult
	RTM      *RTMResult
	Pipeline *PipelineResult
	VP       *VPResult
	Analyze  *AnalyzeResult

	// Cached reports that the result came from the result cache (or was
	// coalesced onto an identical in-flight simulation) rather than a
	// fresh simulation.
	Cached bool
	// Node, when set by a clustered cmd/tlrserve, names the node (its
	// base URL) that produced the result.
	Node string
	// Forwarded reports that a clustered server routed the request to
	// the node holding its referenced trace instead of running it
	// locally; Node then names the executing peer.
	Forwarded bool
	Err       error
}

// Run executes one request on the shared default Batcher.  The context
// cancels the simulation mid-run; see Batcher.Run.
func Run(ctx context.Context, req Request) (Result, error) {
	return DefaultBatcher().Run(ctx, req)
}

// RunBatch executes a batch of requests on the shared default Batcher,
// returning results ordered by request index; see Batcher.RunBatch.
func RunBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	return DefaultBatcher().RunBatch(ctx, reqs)
}

// StreamBatch executes a batch of requests on the shared default
// Batcher, streaming results in completion order; see
// Batcher.StreamBatch.
func StreamBatch(ctx context.Context, reqs []Request) (<-chan Result, error) {
	return DefaultBatcher().StreamBatch(ctx, reqs)
}

// Run executes one request and returns its result.  The returned error
// is non-nil if the request was malformed (never submitted) or if the
// simulation failed; in the latter case the Result's Index, ID and Kind
// are still populated and Result.Err carries the same error.
func (b *Batcher) Run(ctx context.Context, req Request) (Result, error) {
	stream, err := b.StreamBatch(ctx, []Request{req})
	if err != nil {
		return Result{}, err
	}
	res := <-stream
	return res, res.Err
}

// RunBatch executes a batch of requests and returns the results ordered
// by request index.  Malformed requests fail the whole batch before any
// simulation starts, with every validation error joined into the
// returned error.  Otherwise all results are returned in full and the
// returned error joins every failed request's error (nil if none
// failed), so multi-request diagnostics are never lost.
//
// Cancelling ctx stops the batch promptly: requests not yet on a worker
// complete with the cancellation error, and running simulations stop at
// their next cancellation check.
func (b *Batcher) RunBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	stream, err := b.StreamBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(reqs))
	for r := range stream {
		out[r.Index] = r
	}
	var errs []error
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, fmt.Errorf("tlr: request %d (%s): %w", i, out[i].ID, out[i].Err))
		}
	}
	return out, errors.Join(errs...)
}

// StreamBatch submits a batch and returns a channel streaming each
// result as its simulation finishes (completion order, exactly
// len(reqs) results, then the channel closes).  Malformed requests fail
// the whole batch before any simulation starts, with every validation
// error joined.
//
// Cancelling ctx mid-batch still delivers exactly len(reqs) results:
// requests not yet on a worker complete immediately with the
// cancellation error, and running simulations stop at their next
// cancellation check.  The channel is buffered for the whole batch, so
// abandoning it leaks nothing.
func (b *Batcher) StreamBatch(ctx context.Context, reqs []Request) (<-chan Result, error) {
	sjobs := make([]service.Job, len(reqs))
	kinds := make([]Kind, len(reqs))
	var errs []error
	for i, r := range reqs {
		sj, kind, err := b.serviceJob(i, r)
		if err != nil {
			errs = append(errs, fmt.Errorf("tlr: request %d: %w", i, err))
			continue
		}
		sjobs[i] = sj
		kinds[i] = kind
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	batch := b.svc.Submit(ctx, sjobs, 0)
	out := make(chan Result, len(reqs))
	go func() {
		defer close(out)
		for i := 0; i < batch.Len(); i++ {
			r := <-batch.Results()
			out <- resultFromService(r, kinds[r.Index])
		}
	}()
	return out, nil
}

// resultFromService converts one service result into the public form.
func resultFromService(r service.Result, kind Kind) Result {
	res := Result{Index: r.Index, ID: r.ID, Kind: kind, Cached: r.Cached, Err: r.Err}
	if r.Err != nil {
		return res
	}
	switch kind {
	case KindStudy:
		o := r.Value.(service.StudyOutput)
		res.Study = &StudyResult{ILR: o.ILR, TLR: o.TLR, DDA: o.DDA}
	case KindRTM:
		o := r.Value.(RTMResult)
		res.RTM = &o
	case KindPipeline:
		o := r.Value.(PipelineResult)
		res.Pipeline = &o
	case KindVP:
		o := r.Value.(VPResult)
		res.VP = &o
	case KindAnalyze:
		o := r.Value.(analytics.Result)
		res.Analyze = &o
	}
	return res
}

// serviceJob is the canonical validation path: it checks one Request and
// builds its service job.  Every entry point — Run, RunBatch,
// StreamBatch and cmd/tlrserve's HTTP API — funnels through it, so a
// request is judged by one rule set no matter how it arrives.
func (b *Batcher) serviceJob(index int, r Request) (service.Job, Kind, error) {
	id := r.ID
	if id == "" {
		id = fmt.Sprint(index)
	}
	progs := 0
	for _, on := range []bool{r.Workload != "", r.Source != "", r.Prog != nil, r.Trace != nil} {
		if on {
			progs++
		}
	}
	if progs != 1 {
		return service.Job{}, "", fmt.Errorf("exactly one of Workload, Source, Prog, Trace must be set (got %d)", progs)
	}
	kind := r.Kind()
	if kind == "" {
		return service.Job{}, "", fmt.Errorf("exactly one of Study, RTM, Pipeline, VP, Analyze must be set")
	}
	if r.Trace != nil && kind == KindPipeline {
		return service.Job{}, "", ErrTraceUnsupported
	}

	// makeSource maps the request's stream bounds onto the service
	// input: for programs the skip passes through; for trace sources
	// the described stream folds in its recording provenance (cache key
	// and skip offset) and checks coverage.
	var makeSource func(skip, budget uint64) (service.Source, uint64, error)
	switch {
	case r.Workload != "":
		w, ok := workload.ByName(r.Workload)
		if !ok {
			return service.Job{}, "", fmt.Errorf("unknown workload %q", r.Workload)
		}
		prog, err := w.Program()
		if err != nil {
			return service.Job{}, "", err
		}
		src := service.ProgSource("workload:"+r.Workload, prog)
		makeSource = func(skip, _ uint64) (service.Source, uint64, error) { return src, skip, nil }
	case r.Source != "":
		prog, err := b.svc.Program(r.Source)
		if err != nil {
			return service.Job{}, "", err
		}
		src := service.ProgSource(service.Fingerprint(prog), prog)
		makeSource = func(skip, _ uint64) (service.Source, uint64, error) { return src, skip, nil }
	case r.Prog != nil:
		src := service.ProgSource(service.Fingerprint(r.Prog), r.Prog)
		makeSource = func(skip, _ uint64) (service.Source, uint64, error) { return src, skip, nil }
	default:
		ms, err := b.traceSource(r.Trace)
		if err != nil {
			return service.Job{}, "", err
		}
		makeSource = ms
	}

	switch kind {
	case KindStudy:
		s := *r.Study
		if s.Budget == 0 && s.Skip == 0 {
			s.Budget, s.Skip = r.Budget, r.Skip
		} else if r.Budget != 0 || r.Skip != 0 {
			return service.Job{}, "", fmt.Errorf("Study carries its own Skip/Budget; don't also set them on the Request")
		}
		if s.Budget == 0 {
			return service.Job{}, "", fmt.Errorf("study requests need a positive Budget")
		}
		src, skip, err := makeSource(s.Skip, s.Budget)
		if err != nil {
			return service.Job{}, "", err
		}
		s.Skip = skip
		return service.StudyJob(id, src, s), kind, nil
	case KindRTM:
		if r.Budget == 0 {
			return service.Job{}, "", fmt.Errorf("rtm requests need a positive Budget")
		}
		if err := service.ValidGeometry(r.RTM.Geometry); err != nil {
			return service.Job{}, "", err
		}
		src, skip, err := makeSource(r.Skip, r.Budget)
		if err != nil {
			return service.Job{}, "", err
		}
		return service.RTMJob(id, src, service.RTMParams{
			Config: *r.RTM,
			Skip:   skip,
			Budget: r.Budget,
		}), kind, nil
	case KindPipeline:
		if r.Budget == 0 {
			return service.Job{}, "", fmt.Errorf("pipeline requests need a positive Budget")
		}
		if r.Pipeline.RTM != nil {
			if err := service.ValidGeometry(r.Pipeline.RTM.Geometry); err != nil {
				return service.Job{}, "", err
			}
		}
		src, skip, err := makeSource(r.Skip, r.Budget)
		if err != nil {
			return service.Job{}, "", err
		}
		return service.PipelineJob(id, src, service.PipelineParams{
			Config: *r.Pipeline,
			Skip:   skip,
			Budget: r.Budget,
		}), kind, nil
	case KindAnalyze:
		budget := r.Budget
		if budget == 0 {
			// A recorded trace has a known length, so "analyze the whole
			// recording" needs no explicit Budget — the common path for
			// foreign traces referenced by digest.
			if r.Trace == nil {
				return service.Job{}, "", fmt.Errorf("analyze requests on programs need a positive Budget")
			}
			d, err := r.Trace.describe(b)
			if err != nil {
				return service.Job{}, "", err
			}
			if d.base+d.records <= r.Skip {
				return service.Job{}, "", fmt.Errorf("analyze Skip %d leaves no records of the %d-record trace", r.Skip, d.records)
			}
			budget = d.base + d.records - r.Skip
		}
		src, skip, err := makeSource(r.Skip, budget)
		if err != nil {
			return service.Job{}, "", err
		}
		return service.AnalyzeJob(id, src, service.AnalyzeParams{
			Skip:   skip,
			Budget: budget,
		}), kind, nil
	default: // KindVP
		if r.Budget == 0 {
			return service.Job{}, "", fmt.Errorf("vp requests need a positive Budget")
		}
		src, skip, err := makeSource(r.Skip, r.Budget)
		if err != nil {
			return service.Job{}, "", err
		}
		return service.VPJob(id, src, service.VPParams{
			Config: *r.VP,
			Skip:   skip,
			Budget: r.Budget,
		}), kind, nil
	}
}
