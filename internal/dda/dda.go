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
// A Clock times several machines ("lanes") over one dynamic stream: a
// study compares a base machine with reuse machines of different
// latencies, or base machines of different window sizes, and every lane
// sees every instruction.  Each lane keeps its own window, graduation
// prefix and completion maximum; the ready times of all lanes for one
// location sit in one row (a fixed one per register, one found through a
// location table for any other location), so each input is probed and
// each output written once per instruction, whatever the lane count.  Lanes never read each other's state, so timing them together is
// exactly timing each alone.
//
// For trace-level reuse, instructions of a reused trace are not fetched
// and occupy no window entry; Retire therefore takes a per-lane occupancy:
// only occupying instructions enter a lane's W-back ring, while every
// instruction feeds its in-order graduation prefix (reused outputs still
// commit in order, cf. the paper's footnote 2 on precise exceptions).
//
// Completion times are float64 so that the proportional reuse latency
// K×(inputs+outputs) of §4.5 needs no rounding convention.
package dda

import "github.com/tracereuse/tlr/internal/trace"

// Clock tracks completion times for one or more machine configurations
// (lanes) over one instruction stream.
type Clock struct {
	// ready holds one row of per-lane ready times per location: lane j
	// of row r at ready[r*len(lanes)+j].  Row 0 stays all zero; register
	// i (trace.RegIndex) owns row 1+i, so the registers, most of every
	// stream's references, need no table probe; rows maps every other
	// written location to its row, and one never written to row 0.
	ready []float64
	rows  trace.LocMap[int32]
	nrows int32

	lanes []lane
	bound []float64 // per lane: WindowBound, kept current by Retire
	n     int64
}

// lane is one machine's in-order window state.
type lane struct {
	window int // 0 = infinite

	ring  []float64 // graduation times of the last `window` occupying instrs
	head  int       // ring insert position
	count int       // occupying instructions retired so far

	// prefixMax is the graduation time of the latest retired
	// instruction: the running maximum of completion times, which is
	// also the machine's total execution time so far.
	prefixMax float64
}

// New returns a Clock with one lane per window size (0 or negative =
// infinite).
func New(windows []int) *Clock {
	c := &Clock{
		lanes: make([]lane, len(windows)),
		bound: make([]float64, len(windows)),
		ready: make([]float64, (1+trace.RegLocs)*len(windows)),
		nrows: 1 + trace.RegLocs,
	}
	for i, w := range windows {
		l := &c.lanes[i]
		l.window = max(w, 0)
		if l.window > 0 {
			l.ring = make([]float64, l.window)
		}
	}
	return c
}

// Lanes returns the number of machines the Clock times.
func (c *Clock) Lanes() int { return len(c.lanes) }

// Window returns lane's window size (0 = infinite).
func (c *Clock) Window(lane int) int { return c.lanes[lane].window }

// ReadyOf returns the completion time of the latest producer of loc in
// lane (zero if the location is live-in to the whole program).
func (c *Clock) ReadyOf(loc trace.Loc, lane int) float64 {
	row := trace.RegIndex(loc) + 1
	if row == 0 {
		row = int(c.rows.Get(loc))
	}
	return c.ready[row*len(c.lanes)+lane]
}

// InReady sets t[j] to the earliest cycle at which all of e's inputs are
// available in lane j: the max completion time over its producers.
// len(t) must be Lanes().
func (c *Clock) InReady(e *trace.Exec, t []float64) { c.ReadyMax(e.Inputs(), 0, t) }

// ReadyMax sets t[j] to the latest ready time in lane first+j over the
// locations of refs (zero for none), for the len(t) lanes from first on.
func (c *Clock) ReadyMax(refs []trace.Ref, first int, t []float64) {
	clear(t)
	k := len(c.lanes)
	for _, r := range refs {
		row := trace.RegIndex(r.Loc) + 1
		if row == 0 {
			row = int(c.rows.Get(r.Loc))
		}
		at := row*k + first
		for j, rt := range c.ready[at : at+len(t)] {
			if rt > t[j] {
				t[j] = rt
			}
		}
	}
}

// WindowBound returns the graduation time of the instruction W
// window-occupying retires ago in lane, i.e. the earliest cycle at which
// the current instruction can enter that lane's instruction window.  It is
// zero for the infinite-window machine or while the window is not yet
// full.
func (c *Clock) WindowBound(lane int) float64 { return c.bound[lane] }

// Retire commits e in every lane j: it completes — and graduates — at
// completion[j], its outputs become available to consumers at
// valueReady[j], and it holds a window slot iff occupies[j] (false for
// instructions skipped by trace reuse).  Data value speculation needs
// valueReady apart from completion: a correctly predicted instruction's
// consumers see its outputs at prediction time while the instruction
// itself still executes to validate.  Pass completion as valueReady where
// the two coincide.
func (c *Clock) Retire(e *trace.Exec, completion, valueReady []float64, occupies []bool) {
	k := len(c.lanes)
	for _, r := range e.Outputs() {
		row := trace.RegIndex(r.Loc) + 1
		if row == 0 {
			p := c.rows.At(r.Loc)
			if *p == 0 {
				*p = c.nrows
				c.nrows++
				c.ready = append(c.ready, valueReady[:k]...)
				continue
			}
			row = int(*p)
		}
		for j, v := range valueReady[:k] {
			c.ready[row*k+j] = v
		}
	}
	for j := range c.lanes {
		l := &c.lanes[j]
		done := completion[j]
		l.prefixMax = max(l.prefixMax, done)
		if occupies[j] && l.window > 0 {
			l.ring[l.head] = l.prefixMax
			l.head++
			if l.head == l.window {
				l.head = 0
			}
			l.count++
			if l.count >= l.window {
				c.bound[j] = l.ring[l.head] // the oldest entry
			}
		}
	}
	c.n++
}

// Cycles returns lane's maximum completion time so far (total execution
// cycles of that analytical machine).
func (c *Clock) Cycles(lane int) float64 { return c.lanes[lane].prefixMax }

// Instructions returns the number of retired instructions (the same in
// every lane).
func (c *Clock) Instructions() int64 { return c.n }

// IPC returns lane's instructions per cycle (0 for an empty stream).
func (c *Clock) IPC(lane int) float64 {
	if m := c.lanes[lane].prefixMax; m != 0 {
		return float64(c.n) / m
	}
	return 0
}

// Point is one base machine's outcome: the stream timed with no reuse
// at one window size.
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
