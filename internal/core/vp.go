package core

import "github.com/tracereuse/tlr/internal/trace"

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

// VPStudy evaluates the last-value-prediction limit.  It is a lane
// group of a StudySet: one predictor lane beside the set's base machine
// of its window.
type VPStudy struct {
	set  *StudySet
	cfg  VPConfig
	base int // lane of the base machine
	lane int // lane of the predictor
}

// NewVPStudy builds a study for the given configuration, alone in a set
// of its own.
func NewVPStudy(cfg VPConfig) *VPStudy { return NewStudySet().VP(cfg) }

// Consume processes one dynamic instruction on the study's whole set.
func (s *VPStudy) Consume(e *trace.Exec) { s.set.Consume(e) }

// Finish completes the study's set; call once after the stream ends.
func (s *VPStudy) Finish() { s.set.Finish() }

// Result returns the study's metrics.
func (s *VPStudy) Result() VPResult {
	s.set.seal()
	r := VPResult{
		Instructions: s.set.n,
		Predicted:    s.set.predicted,
		BaseCycles:   s.set.clk.Cycles(s.base),
		Cycles:       s.set.clk.Cycles(s.lane),
	}
	if r.Cycles > 0 {
		r.Speedup = r.BaseCycles / r.Cycles
	}
	return r
}
