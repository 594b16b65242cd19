package dda

import (
	"math/rand"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// chain builds a stream of n unit-latency instructions where each reads
// the previous one's output register (a serial dependence chain).
func chain(n int, lat uint8) []trace.Exec {
	out := make([]trace.Exec, n)
	for i := range out {
		e := &out[i]
		e.PC = uint64(i)
		e.Next = uint64(i + 1)
		e.Op = isa.ADD
		e.Lat = lat
		if i > 0 {
			e.AddIn(trace.IntReg(uint8(i%30)), uint64(i))
		}
		e.AddOut(trace.IntReg(uint8((i+1)%30)), uint64(i+1))
	}
	return out
}

// independent builds n instructions with no dependences at all.
func independent(n int, lat uint8) []trace.Exec {
	out := make([]trace.Exec, n)
	for i := range out {
		e := &out[i]
		e.PC = uint64(i)
		e.Next = uint64(i + 1)
		e.Op = isa.LDI
		e.Lat = lat
		e.AddOut(trace.IntReg(uint8(i%8)), uint64(i))
	}
	return out
}

// runBase runs the base machine of one window size over stream: every
// instruction executes normally and occupies a window slot.
func runBase(window int, stream []trace.Exec) Point {
	c := newSingle(window)
	for i := range stream {
		e := &stream[i]
		done := max(c.inReady(e), c.WindowBound(0)) + float64(e.Lat)
		c.retire(e, done, done, true)
	}
	return Point{Window: c.Window(0), Cycles: c.Cycles(0), IPC: c.IPC(0), Instructions: c.Instructions()}
}

// single drives a one-lane Clock through scalar helpers.
type single struct {
	*Clock
	t [1]float64
}

func newSingle(window int) *single { return &single{Clock: New([]int{window})} }

func (s *single) inReady(e *trace.Exec) float64 {
	s.InReady(e, s.t[:])
	return s.t[0]
}

func (s *single) retire(e *trace.Exec, completion, valueReady float64, occupies bool) {
	s.Retire(e, []float64{completion}, []float64{valueReady}, []bool{occupies})
}

func TestSerialChainInfiniteWindow(t *testing.T) {
	b := runBase(0, chain(10, 1))
	if got := b.Cycles; got != 10 {
		t.Errorf("Cycles = %v, want 10 (fully serial chain)", got)
	}
	if got := b.IPC; got != 1 {
		t.Errorf("IPC = %v, want 1", got)
	}
}

func TestIndependentInfiniteWindow(t *testing.T) {
	// With no dependences and no window, everything completes at its own
	// latency: cycles = lat, IPC = n/lat.
	b := runBase(0, independent(100, 2))
	if got := b.Cycles; got != 2 {
		t.Errorf("Cycles = %v, want 2", got)
	}
	if got := b.IPC; got != 50 {
		t.Errorf("IPC = %v, want 50", got)
	}
}

func TestWindowOneIsSequential(t *testing.T) {
	// W=1: every instruction waits for the graduation of its predecessor,
	// so even independent instructions serialize: cycles = sum(latencies).
	b := runBase(1, independent(20, 3))
	if got := b.Cycles; got != 60 {
		t.Errorf("Cycles = %v, want 60", got)
	}
}

func TestWindowLimitsParallelism(t *testing.T) {
	// 8 independent 4-cycle instructions, W=4: the second group of 4 can
	// only start after the first group graduates at cycle 4 -> 8 cycles.
	b := runBase(4, independent(8, 4))
	if got := b.Cycles; got != 8 {
		t.Errorf("Cycles = %v, want 8", got)
	}
}

func TestHandComputedMixedExample(t *testing.T) {
	// i0: r1 <- (lat 2)        completes 2
	// i1: r2 <- r1 (lat 1)     completes 3
	// i2: r3 <- (lat 1)        completes 1 (independent)
	// i3: r4 <- r2+r3 (lat 1)  completes 4
	var s [4]trace.Exec
	mk := func(i int, lat uint8, ins []trace.Loc, out trace.Loc) {
		e := &s[i]
		e.PC, e.Next, e.Op, e.Lat = uint64(i), uint64(i+1), isa.ADD, lat
		for _, l := range ins {
			e.AddIn(l, 0)
		}
		e.AddOut(out, 0)
	}
	mk(0, 2, nil, trace.IntReg(1))
	mk(1, 1, []trace.Loc{trace.IntReg(1)}, trace.IntReg(2))
	mk(2, 1, nil, trace.IntReg(3))
	mk(3, 1, []trace.Loc{trace.IntReg(2), trace.IntReg(3)}, trace.IntReg(4))
	b := runBase(0, s[:])
	if got := b.Cycles; got != 4 {
		t.Errorf("Cycles = %v, want 4", got)
	}
}

func TestMemoryDependence(t *testing.T) {
	// store to M[5] at lat 1, then load of M[5] must wait for it.
	var s [2]trace.Exec
	s[0].Op, s[0].Lat = isa.ST, 1
	s[0].AddOut(trace.Mem(5), 9)
	s[1].Op, s[1].Lat = isa.LD, 2
	s[1].AddIn(trace.Mem(5), 9)
	s[1].AddOut(trace.IntReg(1), 9)
	b := runBase(0, s[:])
	if got := b.Cycles; got != 3 {
		t.Errorf("Cycles = %v, want 3 (1 store + 2 load)", got)
	}
}

func TestNonOccupyingRetiresSkipWindowRing(t *testing.T) {
	// Two occupying instructions around 10 non-occupying ones, W=2.
	// If the non-occupying retires entered the ring, the final occupying
	// instruction would see a much later window bound.
	clk := newSingle(2)
	var e trace.Exec
	e.Op, e.Lat = isa.ADD, 1
	clk.retire(&e, 1, 1, true)
	for i := 0; i < 10; i++ {
		clk.retire(&e, 100, 100, false) // reused trace instructions
	}
	if wb := clk.WindowBound(0); wb != 0 {
		t.Errorf("WindowBound = %v, want 0 (only one occupying instr so far)", wb)
	}
	clk.retire(&e, 1, 1, true)
	if wb := clk.WindowBound(0); wb != 1 {
		// With the window full, the bound is the graduation prefix of
		// the first occupying retire, before the reused completions.
		t.Errorf("WindowBound after fill = %v, want 1", wb)
	}
}

func TestWindowBoundUsesGraduationNotCompletion(t *testing.T) {
	// Graduation is an in-order prefix max: a slow early instruction
	// drags the graduation time of later fast ones.
	clk := newSingle(1)
	var slow, fast trace.Exec
	slow.Op, slow.Lat = isa.MUL, 8
	fast.Op, fast.Lat = isa.ADD, 1
	clk.retire(&slow, 8, 8, true)
	clk.retire(&fast, 1, 1, true) // graduates at 8 (after slow)
	if wb := clk.WindowBound(0); wb != 8 {
		t.Errorf("WindowBound = %v, want 8 (graduation of fast = prefix max)", wb)
	}
}

func TestReadyOfTracksLatestProducer(t *testing.T) {
	clk := newSingle(0)
	var e trace.Exec
	e.Op = isa.ADD
	e.AddOut(trace.IntReg(5), 1)
	clk.retire(&e, 7, 7, true)
	if got := clk.ReadyOf(trace.IntReg(5), 0); got != 7 {
		t.Errorf("ReadyOf = %v, want 7", got)
	}
	if got := clk.ReadyOf(trace.IntReg(6), 0); got != 0 {
		t.Errorf("ReadyOf(untouched) = %v, want 0", got)
	}
}

func TestRetireSplitDecouplesValueFromCompletion(t *testing.T) {
	// A correctly predicted instruction: consumers see its value at
	// valueReady, but graduation (and the window) still wait for its
	// completion.
	clk := newSingle(1) // W=1: the next instruction waits for graduation
	var prod, cons trace.Exec
	prod.Op, prod.Lat = isa.MUL, 8
	prod.AddOut(trace.IntReg(1), 42)
	cons.Op, cons.Lat = isa.ADD, 1
	cons.AddIn(trace.IntReg(1), 42)
	cons.AddOut(trace.IntReg(2), 43)

	clk.retire(&prod, 8, 1, true) // completes at 8, value at 1
	if got := clk.ReadyOf(trace.IntReg(1), 0); got != 1 {
		t.Errorf("value ready at %v, want 1", got)
	}
	if wb := clk.WindowBound(0); wb != 8 {
		t.Errorf("window bound %v, want 8 (graduation uses completion)", wb)
	}
	// The consumer's dataflow could start at 1, but W=1 holds it to 8.
	c := max(clk.inReady(&cons), clk.WindowBound(0)) + float64(cons.Lat)
	if c != 9 {
		t.Errorf("consumer completes at %v, want 9", c)
	}
}

func TestRetireEqualsRetireSplitWithSameTimes(t *testing.T) {
	// Passing the completion slice itself as valueReady is the same as
	// passing an equal copy of it.
	a, b := New([]int{4, 0}), New([]int{4, 0})
	var e trace.Exec
	e.Op, e.Lat = isa.ADD, 1
	e.AddOut(trace.IntReg(3), 7)
	occ := []bool{true, true}
	done := []float64{5, 6}
	a.Retire(&e, done, done, occ)
	b.Retire(&e, done, []float64{5, 6}, occ)
	for j := range done {
		if a.ReadyOf(trace.IntReg(3), j) != b.ReadyOf(trace.IntReg(3), j) || a.Cycles(j) != b.Cycles(j) {
			t.Errorf("lane %d: valueReady aliasing completion changed the timing", j)
		}
	}
}

func TestEmptyStreamIPC(t *testing.T) {
	c := New([]int{0, 4})
	for j := 0; j < c.Lanes(); j++ {
		if c.IPC(j) != 0 || c.Cycles(j) != 0 {
			t.Error("empty stream must report zero IPC and cycles")
		}
	}
}

// randomStream builds a reproducible random stream mixing latencies and
// register/memory dependences.
func randomStream(rng *rand.Rand, n int) []trace.Exec {
	out := make([]trace.Exec, n)
	for i := range out {
		e := &out[i]
		e.PC, e.Next = uint64(i), uint64(i+1)
		e.Op = isa.ADD
		e.Lat = uint8(1 + rng.Intn(8))
		for k := 0; k < rng.Intn(3); k++ {
			if rng.Intn(4) == 0 {
				e.AddIn(trace.Mem(uint64(rng.Intn(50))), 0)
			} else {
				e.AddIn(trace.IntReg(uint8(rng.Intn(30))), 0)
			}
		}
		if rng.Intn(5) > 0 {
			if rng.Intn(4) == 0 {
				e.AddOut(trace.Mem(uint64(rng.Intn(50))), 0)
			} else {
				e.AddOut(trace.IntReg(uint8(rng.Intn(30))), 0)
			}
		}
	}
	return out
}

func TestPropertyWindowMonotonic(t *testing.T) {
	// Cycles(W) must be non-increasing in W, and the infinite window is a
	// lower bound on cycles for every W.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		s := randomStream(rng, 300)
		prev := -1.0
		for _, w := range []int{1, 2, 4, 16, 64, 256, 0} {
			cyc := runBase(w, s).Cycles
			if w == 0 {
				w = 1 << 30
			}
			if prev >= 0 && cyc > prev+1e-9 {
				t.Fatalf("trial %d: cycles grew from %v to %v as window widened to %d", trial, prev, cyc, w)
			}
			prev = cyc
		}
	}
}

func TestPropertyHugeWindowEqualsInfinite(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		s := randomStream(rng, 200)
		finite := runBase(len(s)+1, s).Cycles // window larger than stream
		inf := runBase(0, s).Cycles
		if finite != inf {
			t.Fatalf("trial %d: W>n gave %v, infinite gave %v", trial, finite, inf)
		}
	}
}

func TestPropertyCyclesAtLeastCriticalLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		s := randomStream(rng, 100)
		var maxLat float64
		for i := range s {
			if l := float64(s[i].Lat); l > maxLat {
				maxLat = l
			}
		}
		if cyc := runBase(0, s).Cycles; cyc < maxLat {
			t.Fatalf("trial %d: cycles %v below max latency %v", trial, cyc, maxLat)
		}
	}
}

// mapClock is the reference ready-time model: every location, register
// or not, in one map, with the same window and graduation rules as Clock.
type mapClock struct {
	window          int
	ready           map[trace.Loc]float64
	ring            []float64
	head, count     int
	prefixMax, maxC float64
}

func newMapClock(window int) *mapClock {
	return &mapClock{window: window, ready: map[trace.Loc]float64{}, ring: make([]float64, window)}
}

func (c *mapClock) inReady(e *trace.Exec) float64 {
	var t float64
	for _, r := range e.Inputs() {
		t = max(t, c.ready[r.Loc])
	}
	return t
}

func (c *mapClock) windowBound() float64 {
	if c.window == 0 || c.count < c.window {
		return 0
	}
	return c.ring[c.head]
}

func (c *mapClock) retireSplit(e *trace.Exec, completion, valueReady float64, occupies bool) {
	for _, r := range e.Outputs() {
		c.ready[r.Loc] = valueReady
	}
	c.prefixMax = max(c.prefixMax, completion)
	c.maxC = max(c.maxC, completion)
	if occupies && c.window > 0 {
		c.ring[c.head] = c.prefixMax
		c.head = (c.head + 1) % c.window
		c.count++
	}
}

// TestClockOddLocationsMatchMapModel feeds a Clock locations a
// hand-crafted or decoded stream can carry besides the register file and
// memory: register indexes past isa.NumRegs, the unused fourth kind, and
// locations never written, among enough memory words to grow the
// Clock's location table several times.  Registers live in the table's
// flat arrays and everything else in its hashed part; the Clock must
// neither panic nor alias such locations with real registers, must read
// unwritten ones as zero, and must time the stream exactly as the
// all-map model does.
func TestClockOddLocationsMatchMapModel(t *testing.T) {
	kind3 := func(i uint64) trace.Loc { return trace.Loc(3<<62 | i) }
	locs := []trace.Loc{
		trace.IntReg(0), trace.IntReg(5), trace.IntReg(31), trace.IntReg(32), trace.IntReg(255),
		trace.FPReg(0), trace.FPReg(5), trace.FPReg(31), trace.FPReg(32), trace.FPReg(200),
		trace.Mem(0), trace.Mem(5), trace.Mem(1 << 40),
		kind3(0), kind3(5), kind3(32),
	}
	for a := uint64(0); a < 300; a++ {
		locs = append(locs, trace.Mem(64+a*8))
	}
	// Never written: every read of them must see zero.
	unseen := []trace.Loc{trace.IntReg(7), trace.IntReg(77), trace.FPReg(64), trace.Mem(9), kind3(9)}

	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{0, 1, 4, 32} {
		clk, ref := newSingle(window), newMapClock(window)
		for i := 0; i < 5000; i++ {
			var e trace.Exec
			e.Lat = uint8(1 + rng.Intn(4))
			for k := rng.Intn(3); k > 0; k-- {
				e.AddIn(locs[rng.Intn(len(locs))], 0)
			}
			if rng.Intn(8) == 0 {
				e.AddIn(unseen[rng.Intn(len(unseen))], 0)
			}
			for k := rng.Intn(3); k > 0; k-- {
				e.AddOut(locs[rng.Intn(len(locs))], 0)
			}
			got, want := clk.inReady(&e), ref.inReady(&e)
			if got != want {
				t.Fatalf("window %d, instr %d (%v): InReady %v, map model %v", window, i, &e, got, want)
			}
			if clk.WindowBound(0) != ref.windowBound() {
				t.Fatalf("window %d, instr %d: WindowBound %v, map model %v", window, i, clk.WindowBound(0), ref.windowBound())
			}
			done := max(got, clk.WindowBound(0)) + float64(e.Lat)
			value, occupies := done, rng.Intn(4) != 0
			if rng.Intn(5) == 0 {
				value = done - float64(e.Lat)/2
			}
			clk.retire(&e, done, value, occupies)
			ref.retireSplit(&e, done, value, occupies)
		}
		for _, l := range locs {
			if got, want := clk.ReadyOf(l, 0), ref.ready[l]; got != want {
				t.Errorf("window %d: ReadyOf(%v) = %v, map model %v", window, l, got, want)
			}
		}
		for _, l := range unseen {
			if got := clk.ReadyOf(l, 0); got != 0 {
				t.Errorf("window %d: never-written %v reads %v, want 0", window, l, got)
			}
		}
		if clk.Cycles(0) != ref.maxC {
			t.Errorf("window %d: Cycles %v, map model %v", window, clk.Cycles(0), ref.maxC)
		}
	}
}

// TestMultiLaneClockMatchesSingleMachines times K machines on one Clock
// and on K separate copies of the map model, over random streams with
// per-lane windows (infinite included), random per-lane occupancy and
// split value-ready times.  Every lane must read the same ready times
// and window bounds and end on bit-identical cycles as its model.
func TestMultiLaneClockMatchesSingleMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(12)
		windows := make([]int, k)
		refs := make([]*mapClock, k)
		for j := range windows {
			windows[j] = []int{0, 1, 2, 7, 64}[rng.Intn(5)]
			refs[j] = newMapClock(windows[j])
		}
		clk := New(windows)
		in := make([]float64, k)
		done := make([]float64, k)
		value := make([]float64, k)
		occ := make([]bool, k)
		stream := randomStream(rng, 400)
		for i := range stream {
			e := &stream[i]
			if rng.Intn(3) == 0 {
				// Two lane ranges, split at a random lane.
				m := rng.Intn(k + 1)
				clk.ReadyMax(e.Inputs(), 0, in[:m])
				clk.ReadyMax(e.Inputs(), m, in[m:])
			} else {
				clk.InReady(e, in)
			}
			for j, ref := range refs {
				if want := ref.inReady(e); in[j] != want {
					t.Fatalf("trial %d, instr %d, lane %d: InReady %v, model %v", trial, i, j, in[j], want)
				}
				wb := clk.WindowBound(j)
				if want := ref.windowBound(); wb != want {
					t.Fatalf("trial %d, instr %d, lane %d: WindowBound %v, model %v", trial, i, j, wb, want)
				}
				// Each lane gets its own reuse-like shortcut so the lanes
				// drift apart.
				done[j] = max(in[j], wb) + float64(e.Lat)/float64(1+rng.Intn(3))
				value[j] = done[j]
				if rng.Intn(4) == 0 {
					value[j] = wb + 0.5
				}
				occ[j] = rng.Intn(4) != 0
				ref.retireSplit(e, done[j], value[j], occ[j])
			}
			clk.Retire(e, done, value, occ)
		}
		for j, ref := range refs {
			if clk.Cycles(j) != ref.maxC {
				t.Fatalf("trial %d, lane %d (window %d): Cycles %v, model %v", trial, j, windows[j], clk.Cycles(j), ref.maxC)
			}
			if clk.Window(j) != windows[j] {
				t.Fatalf("lane %d: Window %d, want %d", j, clk.Window(j), windows[j])
			}
		}
		if clk.Instructions() != int64(len(stream)) {
			t.Fatalf("Instructions %d, want %d", clk.Instructions(), len(stream))
		}
	}
}
