package core

import (
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/trace"
)

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

// ILRStudy consumes a dynamic instruction stream and evaluates
// instruction-level reuse with infinite history tables under one or more
// reuse latencies (§4.2–4.3).
//
// Timing follows the paper: a reusable instruction may complete at
// max(inputs ready, window bound) + reuseLatency, and an oracle picks the
// better of reused and normal execution per instruction.  Reused
// instructions are still fetched and occupy window slots — that is the
// structural disadvantage trace-level reuse removes.
type ILRStudy struct {
	cfg  ILRConfig
	hist *History
	clk  *dda.Clock // lane 0: the base machine; lane 1+i: Latencies[i]
	done []float64  // per-lane scratch: input-ready, then completion time
	occ  []bool     // every lane occupies a window slot

	n, reusable int64
}

// NewILRStudy builds a study for the given configuration.
func NewILRStudy(cfg ILRConfig) *ILRStudy {
	k := 1 + len(cfg.Latencies)
	return &ILRStudy{
		cfg:  cfg,
		hist: NewHistory(),
		clk:  dda.New(sameWindows(k, cfg.Window)),
		done: make([]float64, k),
		occ:  occupying(k),
	}
}

// Consume processes one dynamic instruction, classifying it against the
// study's own history table.
func (s *ILRStudy) Consume(e *trace.Exec) {
	s.ConsumeClassified(e, s.hist.Observe(e))
}

// ConsumeClassified processes one dynamic instruction whose reusability
// was already decided by a shared History (several studies over one
// stream share a single classification pass; the paper's engines all use
// the same infinite table).
func (s *ILRStudy) ConsumeClassified(e *trace.Exec, reusable bool) {
	if reusable {
		s.reusable++
	}
	s.n++

	s.clk.InReady(e, s.done)
	lat := float64(e.Lat)
	for j, in := range s.done {
		start := max(in, s.clk.WindowBound(j))
		t := start + lat
		if reusable && j > 0 {
			if r := start + s.cfg.Latencies[j-1]; r < t {
				t = r
			}
		}
		s.done[j] = t
	}
	s.clk.Retire(e, s.done, s.done, s.occ)
}

// Finish completes the study (present for Consumer symmetry; no-op).
func (s *ILRStudy) Finish() {}

// Result returns the study's metrics.
func (s *ILRStudy) Result() ILRResult {
	r := ILRResult{
		Instructions: s.n,
		Reusable:     s.reusable,
		BaseCycles:   s.clk.Cycles(0),
	}
	r.Cycles, r.Speedups = laneSpeedups(s.clk)
	return r
}

// sameWindows returns k copies of window, the lane windows of a study
// whose machines differ only in reuse policy.
func sameWindows(k, window int) []int {
	ws := make([]int, k)
	for i := range ws {
		ws[i] = window
	}
	return ws
}

// occupying returns an occupancy vector in which all k lanes hold a
// window slot.
func occupying(k int) []bool {
	occ := make([]bool, k)
	for i := range occ {
		occ[i] = true
	}
	return occ
}

// laneSpeedups returns the cycles of lanes 1.. of clk and their speed-ups
// over lane 0, the base machine.
func laneSpeedups(clk *dda.Clock) (cycles, speedups []float64) {
	base := clk.Cycles(0)
	for j := 1; j < clk.Lanes(); j++ {
		c := clk.Cycles(j)
		cycles = append(cycles, c)
		sp := 0.0
		if c > 0 {
			sp = base / c
		}
		speedups = append(speedups, sp)
	}
	return cycles, speedups
}
