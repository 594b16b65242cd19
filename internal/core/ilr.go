package core

import "github.com/tracereuse/tlr/internal/trace"

// ILRConfig configures an instruction-level reuse limit study.
type ILRConfig struct {
	// Window is the instruction window size (0 = infinite).
	Window int
	// Latencies lists the reuse latencies (cycles per reuse operation) to
	// evaluate simultaneously on the same stream, e.g. 1..4 for Fig. 4b.
	Latencies []float64
}

// ILRResult reports one instruction-level reuse study.
type ILRResult struct {
	Instructions int64
	Reusable     int64 // instructions whose inputs were seen before (Fig. 3)
	BaseCycles   float64
	// Cycles[i] is the execution time with reuse latency Latencies[i];
	// Speedups[i] = BaseCycles / Cycles[i].
	Cycles   []float64
	Speedups []float64
}

// Reusability returns the fraction of reusable dynamic instructions.
func (r *ILRResult) Reusability() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Reusable) / float64(r.Instructions)
}

// ILRStudy evaluates instruction-level reuse with infinite history
// tables under one or more reuse latencies (§4.2–4.3).  It is a lane
// group of a StudySet: one lane per latency beside the set's base
// machine of its window.
//
// Timing follows the paper: a reusable instruction may complete at
// max(inputs ready, window bound) + reuseLatency, and an oracle picks the
// better of reused and normal execution per instruction.  Reused
// instructions are still fetched and occupy window slots — that is the
// structural disadvantage trace-level reuse removes.
type ILRStudy struct {
	set   *StudySet
	cfg   ILRConfig
	base  int // lane of the base machine
	first int // lane of Latencies[0]
}

// NewILRStudy builds a study for the given configuration, alone in a
// set of its own.
func NewILRStudy(cfg ILRConfig) *ILRStudy { return NewStudySet().ILR(cfg) }

// Consume processes one dynamic instruction on the study's whole set,
// classifying it against the set's own history table.
func (s *ILRStudy) Consume(e *trace.Exec) { s.set.Consume(e) }

// ConsumeClassified processes one dynamic instruction on the study's
// whole set, its reusability already decided by a shared History.
func (s *ILRStudy) ConsumeClassified(e *trace.Exec, reusable bool) {
	s.set.consumeClassified(e, reusable)
}

// Finish completes the study's set; call once after the stream ends.
func (s *ILRStudy) Finish() { s.set.Finish() }

// Result returns the study's metrics.
func (s *ILRStudy) Result() ILRResult {
	cycles, speedups := s.set.speedups(s.base, s.first, len(s.cfg.Latencies))
	return ILRResult{
		Instructions: s.set.n,
		Reusable:     s.set.reusable,
		BaseCycles:   s.set.clk.Cycles(s.base),
		Cycles:       cycles,
		Speedups:     speedups,
	}
}
