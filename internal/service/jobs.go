package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/pipeline"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
)

// Typed job builders for the four simulation kinds every sweep is made
// of: reuse limit studies (Figures 3–8), realistic RTM simulations
// (Figure 9), execution-driven pipeline runs, and value-prediction
// limit studies.  All four produce plain value results, which is what
// makes them cacheable, and all four poll their context so a cancelled
// batch stops simulating promptly.
//
// Jobs consume dynamic instruction streams, not programs: a Source
// provides the stream either by executing a program on the functional
// simulator or by replaying a recorded trace.  The trace-driven kinds
// (study, rtm, vp) accept both; the pipeline kind models fetch and
// execution itself and therefore requires a program.

// Source provides a job's dynamic instruction stream: exactly one of an
// executable program or a recorded-stream opener, plus the cache
// identity of the stream it denotes.  Trace-backed sources carry an
// opener rather than a materialised trace: each run of the job opens
// its own trace.Stream, pulls record batches from it and closes it, so
// nothing in the job layer requires the stream to be resident — an
// in-memory recording, a file decoded incrementally from a disk store
// tier and a composite of several recordings all run through the same
// path.
type Source struct {
	// Key identifies the stream for result caching ("" disables
	// caching).  It must be collision-resistant across callers: a
	// workload name, a program Fingerprint, or a trace digest.
	Key string

	prog *isa.Program
	open func() (trace.Stream, error)
	base uint64
}

// ProgSource is a stream produced by executing prog.
func ProgSource(key string, prog *isa.Program) Source {
	return Source{Key: key, prog: prog}
}

// StreamSource is a stream replayed from a recording via open, which is
// called once per run of the job (a job may run several times across
// batches when its results fall out of cache).  base is how many
// leading records of the keyed stream identity the recording itself
// already skipped (a recording made past a warm-up of S instructions
// starts at instruction S of the program it is keyed as).  Job Skip
// values are identity-relative — they must be, or a trace-backed job
// and its program-backed twin could not share a cache key — and replay
// subtracts base to position the stream in the recording.
func StreamSource(key string, base uint64, open func() (trace.Stream, error)) Source {
	return Source{Key: key, base: base, open: open}
}

// TraceSource is StreamSource over an in-memory recorded trace.
func TraceSource(key string, t *tracefile.Trace, base uint64) Source {
	return StreamSource(key, base, func() (trace.Stream, error) { return t.Cursor(), nil })
}

// streamSkip converts an identity-relative skip into a cursor position
// within the recording.
func (s Source) streamSkip(skip uint64) (uint64, error) {
	if skip < s.base {
		return 0, fmt.Errorf("service: recording starts at record %d of its stream identity; cannot skip only to %d", s.base, skip)
	}
	return skip - s.base, nil
}

// Prog returns the executable program, or nil for a trace-backed source.
func (s Source) Prog() *isa.Program { return s.prog }

func (s Source) validate() error {
	if (s.prog == nil) == (s.open == nil) {
		return fmt.Errorf("service: a Source needs exactly one of a program or a stream opener")
	}
	return nil
}

// openStream opens the recorded stream positioned past the
// identity-relative skip, leaving it ready to deliver the measured
// window's batches.
func (s Source) openStream(skip uint64) (trace.Stream, error) {
	skip, err := s.streamSkip(skip)
	if err != nil {
		return nil, err
	}
	st, err := s.open()
	if err != nil {
		return nil, err
	}
	if skip > 0 {
		if _, err := st.Skip(skip); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// machine returns a machine running a program-backed source's program,
// past its first skip instructions: the machine must pass through the
// skipped state.  Trace-backed sources run as stream passes instead (see
// runPass).
func (s Source) machine(ctx context.Context, skip uint64) (*cpu.CPU, error) {
	c := cpu.New(s.prog)
	if skip > 0 {
		if _, err := c.RunContext(ctx, skip, nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Program assembles source through the service's LRU: repeated batches
// submitting the same text reuse the decoded program.
func (s *Service) Program(source string) (*isa.Program, error) {
	key := sourceFingerprint(source)
	s.mu.Lock()
	if v, ok := s.programs.get(key); ok {
		s.mu.Unlock()
		return v.(*isa.Program), nil
	}
	s.mu.Unlock()
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.programs.add(key, prog)
	s.mu.Unlock()
	return prog, nil
}

// sourceFingerprint keys a program by its assembly text.  The hash must
// be collision-resistant, not merely well-distributed: these keys guard
// caches serving results to arbitrary clients (cmd/tlrserve), where a
// constructible collision would silently return another program's
// results.
func sourceFingerprint(source string) string {
	sum := sha256.Sum256([]byte(source))
	return fmt.Sprintf("src:%x", sum)
}

// Fingerprint keys a program by its serialised image (assembly is
// byte-reproducible, so equal programs share a fingerprint).
func Fingerprint(p *isa.Program) string {
	h := sha256.New()
	if err := isa.WriteImage(h, p); err != nil {
		// WriteImage to a hasher cannot fail; keep the signature honest.
		return fmt.Sprintf("prog:%p", p)
	}
	return fmt.Sprintf("img:%x", h.Sum(nil))
}

// StudyParams configures a reuse limit-study job.  It is the one
// declaration of the study kind's parameters: the tlr facade aliases it
// as StudyConfig, the wire encodes it through its JSON tags, and the
// cache key is derived from the same encoding.
type StudyParams struct {
	// Budget is the number of dynamic instructions to measure.  Inside a
	// tlr.Request it may be left zero, in which case the Request's
	// Skip/Budget apply.
	Budget uint64 `json:"budget,omitempty"`
	// Skip is executed before measurement starts (the paper skipped the
	// first 25 M instructions).
	Skip uint64 `json:"skip,omitempty"`
	// Window is the instruction window size (0 = infinite; the paper's
	// finite machine uses 256).
	Window int `json:"window,omitempty"`
	// ILRLatencies are the instruction-reuse latencies to evaluate
	// (default: {1}).
	ILRLatencies []float64 `json:"ilrLatencies,omitempty"`
	// TLRVariants are the trace-reuse latency models to evaluate
	// (default: {ConstLatency(1)}).
	TLRVariants []core.Latency `json:"tlrVariants,omitempty"`
	// Strict replaces the Theorem-1 upper bound with the strict
	// trace-identity test (see core.TLRConfig.Strict).
	Strict bool `json:"strict,omitempty"`
	// MaxRunLen caps trace length (0 = unbounded).
	MaxRunLen int `json:"maxRunLen,omitempty"`
	// ILPWindows, when non-empty, additionally runs the raw
	// dynamic-dependence-analysis base machine (Austin & Sohi's timing
	// model, no reuse) at each of these window sizes (0 = infinite)
	// over the same stream pass, filling the result's DDA points.  Like
	// the rest of the study kind it is trace-driven: backed by a
	// recorded stream it analyses the replayed stream, with results
	// identical to live execution.
	ILPWindows []int `json:"ilpWindows,omitempty"`
}

// StudyOutput is a limit-study job's result.
type StudyOutput struct {
	ILR core.ILRResult
	TLR core.TLRResult
	// DDA is the base-machine point per requested ILPWindows entry (nil
	// when none were requested).
	DDA []dda.Point `json:",omitempty"`
}

// normalize applies the study defaults.  Both the job body and the
// cache key use the normalized form, so a job with explicit defaults
// and one relying on them share a key (and a cached result).
func (p StudyParams) normalize() StudyParams {
	if len(p.ILRLatencies) == 0 {
		p.ILRLatencies = []float64{1}
	}
	if len(p.TLRVariants) == 0 {
		p.TLRVariants = []core.Latency{core.ConstLatency(1)}
	}
	return p
}

// StudyJob builds a cacheable limit-study job over src.
func StudyJob(id string, src Source, p StudyParams) Job {
	p = p.normalize()
	return laneJob(id, jobKey("study", src, p), "study", &laneSpec{src: src, skip: p.Skip, budget: p.Budget, study: &p})
}

// jobKey derives a job's result-cache key from its kind, its source's
// stream identity and the JSON encoding of its normalized parameters,
// which covers every field they declare (pointers by their pointee).  A
// source without identity runs unkeyed, and so do parameters JSON
// cannot encode (a NaN or infinite latency): running uncached is always
// safe.
func jobKey(kind string, src Source, params any) string {
	if src.Key == "" {
		return ""
	}
	b, err := json.Marshal(params)
	if err != nil {
		return ""
	}
	return kind + "|" + src.Key + "|" + string(b)
}

// RTMParams configures a realistic-RTM simulation job.
type RTMParams struct {
	Config rtm.Config
	Skip   uint64
	Budget uint64
}

// ValidGeometry rejects degenerate RTM geometries.  Jobs carry
// caller-supplied configurations (HTTP requests, batch API users), and a
// degenerate geometry must surface as a job error, not a panic in a
// worker.
func ValidGeometry(g rtm.Geometry) error {
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		return fmt.Errorf("service: RTM geometry Sets must be a positive power of two, got %d", g.Sets)
	}
	if g.PCWays < 1 || g.TracesPerPC < 1 {
		return fmt.Errorf("service: RTM geometry needs PCWays and TracesPerPC >= 1, got %dx%d",
			g.PCWays, g.TracesPerPC)
	}
	return nil
}

// normalize maps parameters the engine treats alike to one form, so
// equivalent jobs share a key: rtm.New clamps MinLen to at least 1 (0
// stands for both), the ILR heuristics ignore N (0), and I(n) EXP runs
// N below 1 as 1.
func (p RTMParams) normalize() RTMParams {
	if p.Config.MinLen <= 1 {
		p.Config.MinLen = 0
	}
	switch p.Config.Heuristic {
	case rtm.ILRNE, rtm.ILREXP:
		p.Config.N = 0
	case rtm.IEXP:
		p.Config.N = max(p.Config.N, 1)
	}
	return p
}

// RTMJob builds a cacheable realistic-RTM job over src.  The parameters
// are normalized first, so equivalent configurations share a cache
// entry.
func RTMJob(id string, src Source, p RTMParams) Job {
	p = p.normalize()
	return laneJob(id, jobKey("rtm", src, p), "rtm", &laneSpec{src: src, skip: p.Skip, budget: p.Budget, rtm: &p.Config})
}

// PipelineParams configures an execution-driven pipeline job.
type PipelineParams struct {
	Config pipeline.Config
	Skip   uint64
	Budget uint64
}

// runPipeline runs src's program on the execution-driven processor
// model (the job body behind PipelineJob), polling ctx as it simulates.
// The pipeline models fetch and execution itself, so src must be
// program-backed; a trace-backed source is rejected.
func runPipeline(ctx context.Context, src Source, p PipelineParams) (pipeline.Result, error) {
	if src.prog == nil {
		return pipeline.Result{}, fmt.Errorf("service: pipeline jobs are execution-driven and need a program, not a trace")
	}
	if p.Config.RTM != nil {
		if err := ValidGeometry(p.Config.RTM.Geometry); err != nil {
			return pipeline.Result{}, err
		}
	}
	c, err := src.machine(ctx, p.Skip)
	if err != nil {
		return pipeline.Result{}, err
	}
	return pipeline.New(p.Config, c).RunContext(ctx, p.Budget)
}

// PipelineJob builds a cacheable execution-driven pipeline job.  The
// configuration is normalized first, so an explicit-default and a
// zero-value configuration share one cache entry.
func PipelineJob(id string, src Source, p PipelineParams) Job {
	p.Config = p.Config.Normalized()
	return Job{ID: id, Key: jobKey("pipeline", src, p), Kind: "pipeline", Run: func(ctx context.Context) (any, error) { return runPipeline(ctx, src, p) }}
}

// VPParams configures a value-prediction limit-study job.
type VPParams struct {
	Config core.VPConfig
	Skip   uint64
	Budget uint64
}

// normalize maps the default prediction latency, which the engine runs
// at 1 cycle, to its zero value.
func (p VPParams) normalize() VPParams {
	if p.Config.PredLat == 1 {
		p.Config.PredLat = 0
	}
	return p
}

// VPJob builds a cacheable value-prediction job over src.  The
// parameters are normalized first, so an explicit default and the zero
// value share a cache entry.
func VPJob(id string, src Source, p VPParams) Job {
	p = p.normalize()
	return laneJob(id, jobKey("vp", src, p), "vp", &laneSpec{src: src, skip: p.Skip, budget: p.Budget, vp: &p})
}

// AnalyzeParams configures a reuse-distance analysis job.
type AnalyzeParams struct {
	Skip   uint64
	Budget uint64
}

// AnalyzeJob builds a cacheable reuse-distance analysis job over src.
func AnalyzeJob(id string, src Source, p AnalyzeParams) Job {
	j := laneJob(id, jobKey("analyze", src, p), "analyze", &laneSpec{src: src, skip: p.Skip, budget: p.Budget, analyze: true})
	j.analyze = true
	return j
}
