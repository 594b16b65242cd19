// Package dda implements the paper's analytical timing model, an extension
// of Austin & Sohi's Dynamic Dependence Analysis ("Dynamic Dependence
// Analysis of Ordinary Programs", ISCA 1992, the paper's reference [1]).
//
// The model assigns each dynamic instruction a completion time:
//
//	completion(i) = max(ready(inputs of i), graduation(i-W)) + latency(i)
//
// where ready(loc) is the completion time of the latest producer of loc,
// and graduation(j) is the running maximum of completion times up to
// instruction j (in-order commit).  W is the instruction window size; the
// W-back constraint disappears for the infinite-window machine.  IPC is
// the instruction count divided by the maximum completion time.
//
// For trace-level reuse, instructions of a reused trace are not fetched
// and occupy no window entry; the Clock therefore distinguishes
// window-occupying retires from non-occupying ones: only occupying
// instructions enter the W-back ring, while every instruction feeds the
// in-order graduation prefix (reused outputs still commit in order, cf.
// the paper's footnote 2 on precise exceptions).
//
// Completion times are float64 so that the proportional reuse latency
// K×(inputs+outputs) of §4.5 needs no rounding convention.
package dda

import "github.com/tracereuse/tlr/internal/trace"

// Clock tracks completion times for one machine configuration.
type Clock struct {
	window int // 0 = infinite

	// Ready times of every location; one never written reads as zero.
	ready trace.LocMap[float64]

	ring  []float64 // graduation times of the last `window` occupying instrs
	head  int       // ring insert position
	count int       // occupying instructions retired so far

	prefixMax float64 // graduation time of the latest retired instruction
	maxC      float64
	n         int64
}

// New returns a Clock for the given window size (0 or negative = infinite).
func New(window int) *Clock {
	c := &Clock{window: max(window, 0)}
	if c.window > 0 {
		c.ring = make([]float64, c.window)
	}
	return c
}

// Window returns the configured window size (0 = infinite).
func (c *Clock) Window() int { return c.window }

// ReadyOf returns the completion time of the latest producer of loc (zero
// if the location is live-in to the whole program).
func (c *Clock) ReadyOf(loc trace.Loc) float64 { return c.ready.Get(loc) }

// InReady returns the earliest cycle at which all of e's inputs are
// available: the max completion time over its producers.
func (c *Clock) InReady(e *trace.Exec) float64 {
	var t float64
	for _, r := range e.Inputs() {
		if rt := c.ReadyOf(r.Loc); rt > t {
			t = rt
		}
	}
	return t
}

// WindowBound returns the graduation time of the instruction W
// window-occupying retires ago, i.e. the earliest cycle at which the
// current instruction can enter the instruction window.  It is zero for
// the infinite-window machine or while the window is not yet full.
func (c *Clock) WindowBound() float64 {
	if c.window == 0 || c.count < c.window {
		return 0
	}
	return c.ring[c.head] // oldest entry
}

// Retire commits e with the given completion time.  occupies tells whether
// the instruction held an instruction-window slot (false for instructions
// skipped by trace reuse).
func (c *Clock) Retire(e *trace.Exec, completion float64, occupies bool) {
	c.RetireSplit(e, completion, completion, occupies)
}

// RetireSplit commits e with separate completion and value-availability
// times.  Data value speculation needs the split: a correctly predicted
// instruction's consumers see its outputs at valueReady (prediction time)
// while the instruction itself still executes to validate, completing —
// and graduating — at completion.
func (c *Clock) RetireSplit(e *trace.Exec, completion, valueReady float64, occupies bool) {
	for _, r := range e.Outputs() {
		c.ready.Set(r.Loc, valueReady)
	}
	if completion > c.prefixMax {
		c.prefixMax = completion
	}
	if completion > c.maxC {
		c.maxC = completion
	}
	if occupies && c.window > 0 {
		c.ring[c.head] = c.prefixMax
		c.head++
		if c.head == c.window {
			c.head = 0
		}
		c.count++
	}
	c.n++
}

// Cycles returns the maximum completion time seen so far (total execution
// cycles of the analytical machine).
func (c *Clock) Cycles() float64 { return c.maxC }

// Instructions returns the number of retired instructions.
func (c *Clock) Instructions() int64 { return c.n }

// IPC returns instructions per cycle (0 for an empty stream).
func (c *Clock) IPC() float64 {
	if c.maxC == 0 {
		return 0
	}
	return float64(c.n) / c.maxC
}

// Base is the no-reuse machine: every instruction executes normally and
// occupies a window slot.  It is the denominator of every speed-up in the
// paper.
type Base struct {
	clk *Clock
}

// NewBase returns a base machine with the given window size.
func NewBase(window int) *Base { return &Base{clk: New(window)} }

// Consume processes one dynamic instruction.
func (b *Base) Consume(e *trace.Exec) {
	t := max(b.clk.InReady(e), b.clk.WindowBound()) + float64(e.Lat)
	b.clk.Retire(e, t, true)
}

// Clock exposes the underlying clock (read-only use).
func (b *Base) Clock() *Clock { return b.clk }

// Cycles returns total cycles.
func (b *Base) Cycles() float64 { return b.clk.Cycles() }

// IPC returns instructions per cycle.
func (b *Base) IPC() float64 { return b.clk.IPC() }
