package core

import "github.com/tracereuse/tlr/internal/trace"

// Latency describes the cost of one trace reuse operation (§4.5).
// Exactly one of the two models is active: if K > 0 the latency is
// K × (live-ins + outputs) — the "read and compare every input, write
// every output" model; otherwise it is the constant Const — the
// "valid-bit" model.
type Latency struct {
	Const float64
	K     float64
}

// ConstLatency returns a constant reuse latency of c cycles.
func ConstLatency(c float64) Latency { return Latency{Const: c} }

// PropLatency returns a latency of k cycles per trace input/output value;
// k is the inverse of the reuse engine's read/write bandwidth (e.g. 1/16
// for 16 values per cycle).
func PropLatency(k float64) Latency { return Latency{K: k} }

// Of computes the reuse latency of a trace with the given live-in and
// output counts.
func (l Latency) Of(ins, outs int) float64 {
	if l.K > 0 {
		return l.K * float64(ins+outs)
	}
	return l.Const
}

// TLRConfig configures a trace-level reuse limit study.
type TLRConfig struct {
	// Window is the instruction window size (0 = infinite).
	Window int
	// Variants lists the reuse-latency models evaluated simultaneously.
	Variants []Latency
	// Strict switches from the Theorem-1 upper bound (a maximal run of
	// reusable instructions is reusable as a whole) to the strict test (a
	// trace is reusable only if this exact start-PC + live-in vector
	// executed before).  Theorem 2 says Strict can only reuse less; the
	// pair quantifies the gap.
	Strict bool
	// MaxRunLen caps trace length (0 = unbounded).  Maximal runs longer
	// than the cap are chopped; an ablation of trace granularity, and the
	// natural companion of Strict, where bounded recurring traces are what
	// a real table can actually hit.
	MaxRunLen int
	// BlockBounded additionally ends every trace at a control-flow
	// instruction, restricting traces to basic blocks.  This reproduces
	// the paper's §2 comparison with Huang & Lilja's basic-block reuse:
	// "basic block reuse is a particular case of trace-level reuse...
	// trace-level reuse is more general and can exploit reuse in larger
	// sequences of instructions, such as subroutines, loops, etc."
	// (Entry points reached by fall-through are not split; over a dynamic
	// stream the branch cut dominates, and the simplification only makes
	// block reuse look better.)
	BlockBounded bool
}

// TraceStats aggregates per-trace shape metrics for Fig. 7 and the §4.5
// bandwidth discussion.
type TraceStats struct {
	Traces       int64
	Instructions int64 // total instructions inside reused traces
	InRegs       int64
	InMems       int64
	OutRegs      int64
	OutMems      int64
	MaxLen       int
}

// Add accumulates one trace summary.
func (ts *TraceStats) Add(s *trace.Summary) {
	ts.Traces++
	ts.Instructions += int64(s.Len)
	ir, im := s.InCounts()
	or, om := s.OutCounts()
	ts.InRegs += int64(ir)
	ts.InMems += int64(im)
	ts.OutRegs += int64(or)
	ts.OutMems += int64(om)
	if s.Len > ts.MaxLen {
		ts.MaxLen = s.Len
	}
}

// AvgLen is the mean trace size in instructions (Fig. 7).
func (ts *TraceStats) AvgLen() float64 { return ratio(ts.Instructions, ts.Traces) }

// AvgIns is the mean live-in count per trace (registers, memory, total).
func (ts *TraceStats) AvgIns() (reg, mem, total float64) {
	reg = ratio(ts.InRegs, ts.Traces)
	mem = ratio(ts.InMems, ts.Traces)
	return reg, mem, reg + mem
}

// AvgOuts is the mean output count per trace.
func (ts *TraceStats) AvgOuts() (reg, mem, total float64) {
	reg = ratio(ts.OutRegs, ts.Traces)
	mem = ratio(ts.OutMems, ts.Traces)
	return reg, mem, reg + mem
}

// ReadsPerInstr is trace inputs per reused instruction (§4.5: 0.43).
func (ts *TraceStats) ReadsPerInstr() float64 {
	return ratio(ts.InRegs+ts.InMems, ts.Instructions)
}

// WritesPerInstr is trace outputs per reused instruction (§4.5: 0.33).
func (ts *TraceStats) WritesPerInstr() float64 {
	return ratio(ts.OutRegs+ts.OutMems, ts.Instructions)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TLRResult reports one trace-level reuse study.
type TLRResult struct {
	Instructions int64
	// ReusedInstructions counts instructions inside reused traces.
	ReusedInstructions int64
	BaseCycles         float64
	Cycles             []float64 // per variant
	Speedups           []float64 // BaseCycles / Cycles[i]
	Stats              TraceStats
}

// ReusedFraction is the fraction of dynamic instructions skipped by trace
// reuse.
func (r *TLRResult) ReusedFraction() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.ReusedInstructions) / float64(r.Instructions)
}

// TLRStudy evaluates trace-level reuse (§4.4–4.5).  Traces are the
// maximal dynamic runs of instruction-level-reusable instructions; by
// Theorem 1 their instruction count upper-bounds any trace partitioning,
// and grouping them maximally minimises reuse operations.  It is a lane
// group of a StudySet: one lane per latency variant beside the set's
// base machine of its window.
//
// Timing: every instruction of a reusable trace completes at
// max(ready of the trace's live-ins) + reuseLatency, with a per-instruction
// oracle capping that at the instruction's normal dataflow time.  Reused
// instructions do not occupy instruction-window slots — they are not even
// fetched — which is why trace reuse gains speed-up in the finite-window
// machine (Fig. 6b vs 6a).
type TLRStudy struct {
	set   *StudySet
	cfg   TLRConfig
	rule  *runRule // how the study cuts runs into traces
	base  int      // lane of the base machine
	first int      // lane of Variants[0]

	reusing bool      // the trace being timed is reused
	tTrace  []float64 // per variant: completion of the reused trace being timed

	reused int64
	stats  TraceStats
}

// NewTLRStudy builds a study for the given configuration, alone in a
// set of its own.
func NewTLRStudy(cfg TLRConfig) *TLRStudy { return NewStudySet().TLR(cfg) }

// Consume processes one dynamic instruction on the study's whole set,
// classifying it against the set's own history table.
func (s *TLRStudy) Consume(e *trace.Exec) { s.set.Consume(e) }

// ConsumeClassified processes one dynamic instruction on the study's
// whole set, its reusability already decided by a shared History.
func (s *TLRStudy) ConsumeClassified(e *trace.Exec, reusable bool) {
	s.set.consumeClassified(e, reusable)
}

// Finish times the trailing run of the study's set; call once after the
// stream ends.
func (s *TLRStudy) Finish() { s.set.Finish() }

// Result returns the study's metrics.
func (s *TLRStudy) Result() TLRResult {
	cycles, speedups := s.set.speedups(s.base, s.first, len(s.cfg.Variants))
	return TLRResult{
		Instructions:       s.set.n,
		ReusedInstructions: s.reused,
		BaseCycles:         s.set.clk.Cycles(s.base),
		Cycles:             cycles,
		Speedups:           speedups,
		Stats:              s.stats,
	}
}
