package core

import (
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/trace"
)

// Data value speculation is the other technique the paper's introduction
// names for breaking true dependences ("Two techniques have been proposed
// so far...: data value speculation and data value reuse"), and reference
// [14] (Sodani & Sohi, MICRO 1998) analyses their differences.  This file
// implements a value-prediction limit study so that the repository can
// make that comparison executable: a last-value predictor with infinite
// tables and oracle-free timing.
//
// Model: each static instruction's outputs are predicted to repeat its
// previous execution's outputs.  When the prediction is correct, the
// instruction's consumers may proceed at prediction time — the moment the
// instruction enters the window plus PredLat — while the instruction
// itself still executes to validate, completing (and graduating) at its
// normal time.  Mispredictions carry no penalty, so the result is an
// upper bound, comparable in spirit to the reuse limit studies.
//
// The contrast the comparison surfaces is the paper's §1 argument: value
// reuse *verifies before use* (needs inputs ready), value speculation
// *uses before verifying* (breaks chains outright); and trace-level reuse
// closes most of the gap while staying non-speculative.

// VPConfig configures a value-prediction limit study.
type VPConfig struct {
	// Window is the instruction window size (0 = infinite).
	Window int
	// PredLat is the cycles from window entry to predicted values being
	// available (default 1, like the reuse latency of the studies it is
	// compared with).
	PredLat float64
}

// VPResult reports one value-prediction limit study.
type VPResult struct {
	Instructions int64
	Predicted    int64 // instructions whose outputs repeated exactly
	BaseCycles   float64
	Cycles       float64
	Speedup      float64
}

// PredictedFraction is the last-value predictability of the stream.
func (r *VPResult) PredictedFraction() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Predicted) / float64(r.Instructions)
}

// VPStudy consumes a dynamic instruction stream and evaluates the
// last-value-prediction limit.
type VPStudy struct {
	cfg   VPConfig
	clk   *dda.Clock // lane 0: the base machine; lane 1: the predictor
	done  []float64  // per-lane scratch: input-ready, then completion time
	value []float64  // per-lane time the outputs become visible
	occ   []bool     // both lanes occupy a window slot

	last lastOutputs // PC -> outputs of the previous execution

	n, predicted int64
}

// NewVPStudy builds a study for the given configuration.
func NewVPStudy(cfg VPConfig) *VPStudy {
	if cfg.PredLat == 0 {
		cfg.PredLat = 1
	}
	return &VPStudy{
		cfg:   cfg,
		clk:   dda.New([]int{cfg.Window, cfg.Window}),
		done:  make([]float64, 2),
		value: make([]float64, 2),
		occ:   occupying(2),
	}
}

// Consume processes one dynamic instruction.
func (s *VPStudy) Consume(e *trace.Exec) {
	s.n++
	predicted := s.checkAndUpdate(e)
	if predicted {
		s.predicted++
	}

	s.clk.InReady(e, s.done)
	lat := float64(e.Lat)
	s.done[0] = max(s.done[0], s.clk.WindowBound(0)) + lat
	wb := s.clk.WindowBound(1)
	s.done[1] = max(s.done[1], wb) + lat
	s.value[0], s.value[1] = s.done[0], s.done[1]
	if predicted {
		// Consumers see the predicted outputs as soon as the prediction
		// is made; validation still completes at done[1].
		if v := wb + s.cfg.PredLat; v < s.done[1] {
			s.value[1] = v
		}
	}
	s.clk.Retire(e, s.done, s.value, s.occ)
}

// checkAndUpdate reports whether e's outputs equal the previous execution
// of the same static instruction, then records them.  Side-effecting
// instructions are never predicted.
func (s *VPStudy) checkAndUpdate(e *trace.Exec) bool {
	if e.SideEffect || e.NOut == 0 {
		// Nothing to value-predict; control flow is the branch
		// predictor's job, not the value predictor's.
		return false
	}
	return s.last.swap(e.PC, e.Outputs())
}

// Finish completes the study (no-op; Consumer symmetry).
func (s *VPStudy) Finish() {}

// Result returns the study's metrics.
func (s *VPStudy) Result() VPResult {
	r := VPResult{
		Instructions: s.n,
		Predicted:    s.predicted,
		BaseCycles:   s.clk.Cycles(0),
		Cycles:       s.clk.Cycles(1),
	}
	if r.Cycles > 0 {
		r.Speedup = r.BaseCycles / r.Cycles
	}
	return r
}
