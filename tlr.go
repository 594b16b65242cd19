// Package tlr is a Go reproduction of "Trace-Level Reuse" (A. González,
// J. Tubella, C. Molina; ICPP 1999): data-value reuse at the granularity
// of dynamic instruction traces, evaluated both as a limit study and as a
// realistic finite Reuse Trace Memory (RTM).
//
// The package is the public facade over the repository's subsystems:
//
//   - an Alpha-inspired 64-bit RISC ISA, assembler and functional
//     simulator (the substitute for the paper's ATOM-instrumented Alpha
//     binaries);
//   - the dynamic-dependence-analysis timing model (Austin & Sohi style)
//     with finite and infinite instruction windows;
//   - instruction-level and trace-level reuse limit engines with
//     infinite history tables (paper §4.2–4.5);
//   - the realistic set-associative RTM with the paper's three dynamic
//     trace-collection heuristics (paper §3, §4.6);
//   - the 14-benchmark workload suite named after the paper's SPEC95
//     subset;
//   - a batch simulation service behind one request model.
//
// # The Request/Run model
//
// Every simulation is a Request: an instruction-stream input (a
// built-in Workload name, assembly Source, an assembled Prog, or a
// recorded Trace source) plus exactly one configuration naming the
// simulation kind —
//
//   - Study: the reuse limit studies of Figures 3–8;
//   - RTM: the realistic finite Reuse Trace Memory of Figure 9;
//   - Pipeline: the execution-driven Figure 2 processor model;
//   - VP: the last-value-prediction limit study (§1's
//     speculation-vs-reuse comparison).
//
// Study, RTM and VP are trace-driven: their engines consume the dynamic
// instruction stream and nothing else, so any TraceSource — an
// in-memory recording from Record, a trace file (TraceFile/OpenTrace),
// an io.Reader (ReadTrace), or a digest reference into a trace store
// (TraceRef) — can stand in for the program, exactly as the
// paper's engines analysed ATOM-recorded trace files offline.  A
// recorded sweep replays the stream instead of re-simulating (record
// once, analyse across the whole configuration grid) and returns
// results identical to live execution, sharing its result-cache
// entries.  Pipeline models fetch and execution itself and rejects
// trace inputs with ErrTraceUnsupported.
//
// Run, RunBatch and StreamBatch are the only entry points:
//
//	prog, _ := tlr.Assemble(src)
//	res, _ := tlr.Run(ctx, tlr.Request{
//		Prog:  prog,
//		Study: &tlr.StudyConfig{Budget: 100000, Window: 256},
//	})
//	fmt.Println(res.Study.TLR.Speedups[0])
//
// Batch sweeps submit many requests at once and collect ordered results:
//
//	reqs := []tlr.Request{
//		{Workload: "gcc", RTM: &tlr.RTMConfig{Geometry: tlr.Geometry4K}, Budget: 100000},
//		{Workload: "li", Pipeline: &tlr.PipelineConfig{}, Budget: 100000},
//	}
//	res, _ := tlr.RunBatch(ctx, reqs)
//
// All entry points fan out over a shared worker pool, deduplicate
// identical requests in flight, and memoise results in an LRU, so
// configuration sweeps pay for each distinct simulation once; a
// dedicated pool with its own caches is a NewBatcher call away.  The
// context is honoured throughout: cancelling it skips requests that
// have not reached a worker and stops running simulations at their next
// cancellation check, while still delivering exactly one result per
// request.
//
// The same service layer runs behind cmd/tlrserve, an HTTP/JSON server
// that accepts single requests (POST /v1/run), request batches (POST
// /v1/batch, streaming NDJSON results), trace uploads (POST /v1/traces,
// then digest-referenced runs), foreign-trace ingests and reuse-distance
// analyses.  Request and Result marshal to the server's versioned JSON
// wire format, so a Go client can drive it with encoding/json alone.
//
// See examples/ for complete programs (examples/batchsweep drives the
// batch API) and cmd/tlrexp for the harness that regenerates every
// figure of the paper.
package tlr

import (
	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/pipeline"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/workload"
)

// Program is an assembled executable image.
type Program = isa.Program

// Assemble translates assembly source (see internal/asm for the syntax)
// into a program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// AssembleNamed is Assemble with a source name used in error messages.
func AssembleNamed(name, src string) (*Program, error) { return asm.AssembleNamed(name, src) }

// Disassemble renders a program as assembly that reassembles identically.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// Workload is one benchmark of the suite.
type Workload = workload.Workload

// Workloads returns the 14-benchmark suite in the paper's figure order
// (FP first, then integer).
func Workloads() []*Workload { return workload.All() }

// WorkloadByName finds a benchmark by its SPEC95 name (e.g. "hydro2d").
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// Latency models the cost of one trace-reuse operation: constant, or
// proportional to the trace's input+output count (paper §4.5).
type Latency = core.Latency

// ConstLatency returns a constant reuse latency of c cycles.
func ConstLatency(c float64) Latency { return core.ConstLatency(c) }

// PropLatency returns a reuse latency of k cycles per input/output value.
func PropLatency(k float64) Latency { return core.PropLatency(k) }

// StudyConfig configures a reuse limit study over one program
// (KindStudy).  It is the service's declaration of the study
// parameters, so the facade, the wire and the result cache read one
// type; see the field docs there.
type StudyConfig = service.StudyParams

// DDAPoint is one window size's base-machine outcome from the
// dynamic-dependence-analysis timing model (StudyConfig.ILPWindows).
type DDAPoint = dda.Point

// StudyResult bundles the instruction-level and trace-level limit-study
// results for one program; all engines saw the same dynamic stream and
// the ILR/TLR pair shared one reusability classification.  It is the
// service's study job result.
type StudyResult = service.StudyOutput

// RTM geometry and simulation types (paper §4.6).
type (
	// Geometry is the RTM shape: sets x PC-ways x traces/PC.
	Geometry = rtm.Geometry
	// RTMConfig configures a realistic RTM simulation (KindRTM).
	RTMConfig = rtm.Config
	// RTMResult summarises one realistic RTM simulation.
	RTMResult = rtm.Result
	// Heuristic selects the dynamic trace-collection policy.
	Heuristic = rtm.Heuristic
)

// The paper's four RTM capacities and three collection heuristics.
var (
	Geometry512  = rtm.Geometry512
	Geometry4K   = rtm.Geometry4K
	Geometry32K  = rtm.Geometry32K
	Geometry256K = rtm.Geometry256K
)

// Collection heuristics (paper §4.6).
const (
	ILRNE  = rtm.ILRNE
	ILREXP = rtm.ILREXP
	IEXP   = rtm.IEXP
)

// PipelineConfig parameterises the execution-driven processor model
// (KindPipeline): a superscalar front end with finite fetch bandwidth
// and window, with the RTM consulted at every fetch (the paper's
// Figure 2).
type PipelineConfig = pipeline.Config

// PipelineResult summarises one execution-driven run; IPC can exceed the
// fetch width because reused instructions retire without being fetched.
type PipelineResult = pipeline.Result

// VPResult reports a value-prediction limit study (KindVP): predicted
// outputs are available at window entry, validation still executes,
// mispredictions are free (an optimistic bound).  It makes the paper's
// §1 speculation-vs-reuse framing executable.
type VPResult = core.VPResult
