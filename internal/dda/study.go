package dda

import "github.com/tracereuse/tlr/internal/trace"

// The trace-driven face of the timing model.  A Clock only ever
// consumes trace.Exec records, so nothing about the analysis requires
// live execution — but until now every driver fed it straight from the
// functional simulator.  Study packages the common "base-machine IPC
// across window sizes" sweep (the paper's §1 ILP-limits motivation,
// Austin & Sohi's original use of the model) as a pure stream consumer:
// feed it records from a CPU, a recorded trace, a composite of several
// recordings — the result is identical for identical streams, which is
// what makes replayed DDA provably equivalent to execution-driven DDA.

// Point is one window size's base-machine outcome.
type Point struct {
	// Window is the instruction window size (0 = infinite).
	Window int
	// Cycles is the analytical machine's total execution time.
	Cycles float64
	// IPC is Instructions / Cycles.
	IPC float64
	// Instructions is the number of retired instructions.
	Instructions int64
}

// Study runs one base machine per window size over a single dynamic
// stream pass: every instruction executes normally and occupies a window
// slot.  The base machine is the denominator of every speed-up in the
// paper.
type Study struct {
	clk  *Clock
	done []float64
	occ  []bool
}

// NewStudy returns a Study over the given window sizes (0 or negative =
// infinite).
func NewStudy(windows []int) *Study {
	s := &Study{clk: New(windows), done: make([]float64, len(windows)), occ: make([]bool, len(windows))}
	for i := range s.occ {
		s.occ[i] = true
	}
	return s
}

// Consume processes one dynamic instruction on every machine.
func (s *Study) Consume(e *trace.Exec) {
	s.clk.InReady(e, s.done)
	for j, in := range s.done {
		s.done[j] = max(in, s.clk.WindowBound(j)) + float64(e.Lat)
	}
	s.clk.Retire(e, s.done, s.done, s.occ)
}

// Result returns one Point per window, in the order given to NewStudy.
func (s *Study) Result() []Point {
	out := make([]Point, s.clk.Lanes())
	for i := range out {
		out[i] = Point{
			Window:       s.clk.Window(i),
			Cycles:       s.clk.Cycles(i),
			IPC:          s.clk.IPC(i),
			Instructions: s.clk.Instructions(),
		}
	}
	return out
}
