// Package pipeline is an execution-driven model of the paper's Figure 2
// processor: a superscalar front end with finite fetch bandwidth and a
// finite instruction window, with the Reuse Trace Memory consulted at
// every fetch.  Where the limit studies (internal/core) assume infinite
// fetch and oracle reuse, this model charges for everything the paper
// argues about:
//
//   - fetch bandwidth: at most FetchWidth instructions enter per cycle,
//     and a reuse operation consumes one fetch slot — but the trace's
//     instructions consume none (the §1 claim "these instructions do not
//     need to be fetched");
//   - instruction window: fetch stalls when the window is full; a reused
//     trace holds a single entry (the paper's footnote 2) instead of one
//     per instruction, enlarging the effective window;
//   - the reuse test: a trace's outputs become available only after its
//     live-in values are available plus ReuseLat.
//
// Execution inside the window is dataflow-limited with unbounded
// functional units, matching the paper's §4 scenario.  The paper stops at
// measuring finite-table reusability (Fig. 9); this model turns those
// reusability numbers into execution-driven speed-ups, the evaluation the
// paper leaves as future work.
package pipeline

import (
	"context"
	"math"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/trace"
)

// Config parameterises the processor.
type Config struct {
	// FetchWidth is the instructions fetched per cycle (default 4).
	FetchWidth int
	// Window is the instruction-window (ROB) size (default 256).
	Window int
	// FrontLat is the fetch-to-execute depth in cycles (default 2).
	FrontLat int
	// ReuseLat is the latency of one reuse operation (default 1).
	ReuseLat float64
	// WaitForOperands selects the paper's alternative reuse-test trigger
	// (§3.3: "...or whenever an input trace operand becomes ready"): a
	// matching trace whose live-ins are still in flight is held in a
	// reuse station until they arrive, then applied all at once.  The
	// default fetch-time test can only compare committed values, so it
	// misses when producers are in flight — cheap hardware, but blind
	// exactly where the program is dataflow-bound.
	WaitForOperands bool
	// RTM enables the reuse hardware; nil models the base machine.
	RTM *rtm.Config
}

// Normalized returns the configuration with every zero field replaced by
// its default.  New applies it automatically; callers that key caches on
// a Config should normalize first so that an explicit-default and a
// zero-value configuration share one cache entry.
func (c Config) Normalized() Config {
	if c.FetchWidth <= 0 {
		c.FetchWidth = 4
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.FrontLat <= 0 {
		c.FrontLat = 2
	}
	if c.ReuseLat <= 0 {
		c.ReuseLat = 1
	}
	return c
}

// Result summarises one run.
type Result struct {
	Cycles   float64
	Retired  uint64 // executed + skipped
	Executed uint64
	Skipped  uint64
	Hits     uint64
	// NotReady counts RTM matches abandoned because a live-in value was
	// not yet computed when the fetch-stage reuse test ran: the test
	// compares against architectural state, so it cannot match values
	// that do not exist yet (§3.3).
	NotReady uint64
	// WindowStalls counts fetch slots delayed by a full window.
	WindowStalls uint64
}

// IPC is retired instructions per cycle.  With trace reuse it can exceed
// FetchWidth: skipped instructions retire without being fetched.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / r.Cycles
}

// Sim couples the functional CPU with the pipeline timing model.
type Sim struct {
	cfg Config
	cpu *cpu.CPU

	mem *rtm.RTM
	col rtm.Collector

	// fetch state
	fetchCycle float64
	slotsUsed  int

	// dataflow state
	ready trace.LocMap[float64]

	// in-order graduation window (one entry per window occupant)
	ring      []float64
	head      int
	count     int
	prefixMax float64
	maxC      float64

	res Result

	// DebugReuse, when set, receives (fetch, inReady, completion, length)
	// for every reuse operation; a development probe.
	DebugReuse func(f, in, t float64, n int)
}

// New builds a simulation over a fresh CPU.
func New(cfg Config, c *cpu.CPU) *Sim {
	cfg = cfg.Normalized()
	s := &Sim{
		cfg:  cfg,
		cpu:  c,
		ring: make([]float64, cfg.Window),
	}
	if cfg.RTM != nil {
		s.mem = rtm.New(cfg.RTM.Geometry, cfg.RTM.MinLen)
		if cfg.RTM.InvalidateOnWrite {
			s.mem.EnableInvalidation()
		}
		s.col = rtm.NewCollector(*cfg.RTM, s.mem)
	}
	return s
}

// fetchSlot allocates one fetch slot, respecting fetch width and window
// occupancy, and returns the cycle the slot issues in.
func (s *Sim) fetchSlot() float64 {
	if s.slotsUsed >= s.cfg.FetchWidth {
		s.fetchCycle++
		s.slotsUsed = 0
	}
	// The window must have room: wait for the W-back occupant to
	// graduate.
	if s.count >= s.cfg.Window {
		if wb := s.ring[s.head]; wb > s.fetchCycle {
			s.fetchCycle = math.Ceil(wb)
			s.slotsUsed = 0
			s.res.WindowStalls++
		}
	}
	s.slotsUsed++
	return s.fetchCycle
}

// occupy records one window occupant graduating at time g.
func (s *Sim) occupy(g float64) {
	if g > s.prefixMax {
		s.prefixMax = g
	}
	s.ring[s.head] = s.prefixMax
	s.head++
	if s.head == s.cfg.Window {
		s.head = 0
	}
	s.count++
}

func (s *Sim) inReady(refs []trace.Ref) float64 {
	var t float64
	for _, r := range refs {
		if rt := s.ready.Get(r.Loc); rt > t {
			t = rt
		}
	}
	return t
}

// Run retires up to budget instructions (executed + skipped), stopping at
// HALT.
func (s *Sim) Run(budget uint64) (Result, error) {
	return s.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation: every
// cpu.CancelCheckInterval fetch decisions it polls ctx and stops with
// ctx.Err().  A cancelled run returns the metrics accumulated so far
// alongside the error; partial results must not be cached.
func (s *Sim) RunContext(ctx context.Context, budget uint64) (Result, error) {
	var e trace.Exec
	var iter uint64
	for s.res.Retired < budget && !s.cpu.Halted() {
		if iter%cpu.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return s.finish(), err
			}
		}
		iter++
		if s.mem != nil {
			if entry := s.mem.Lookup(s.cpu.PC(), s.cpu); entry != nil {
				if s.cfg.WaitForOperands || s.inReady(entry.Sum.Ins) <= s.fetchCycle+float64(s.cfg.FrontLat) {
					s.reuse(entry)
					continue
				}
				// The stored trace matches the *final* values, but some
				// live-in is still in flight at test time: the fetch-stage
				// comparison cannot succeed, so execution proceeds
				// normally (and would also, in real hardware, on a value
				// mismatch that later resolves to equal).
				s.res.NotReady++
			}
		}
		if err := s.cpu.Step(&e); err != nil {
			return s.finish(), err
		}
		s.execute(&e)
		if s.col != nil {
			s.col.Observe(&e)
			if s.mem.Invalidating() {
				for _, r := range e.Outputs() {
					s.mem.NotifyWrite(r.Loc)
				}
			}
		}
	}
	return s.finish(), nil
}

// execute times one normally executed instruction.
func (s *Sim) execute(e *trace.Exec) {
	f := s.fetchSlot()
	c := max(s.inReady(e.Inputs()), f+float64(s.cfg.FrontLat)) + float64(e.Lat)
	for _, r := range e.Outputs() {
		s.ready.Set(r.Loc, c)
	}
	if c > s.maxC {
		s.maxC = c
	}
	s.occupy(c)
	s.res.Executed++
	s.res.Retired++
}

// reuse times one trace-reuse operation: a single fetch slot and window
// entry stand in for the whole trace.
func (s *Sim) reuse(entry *rtm.Entry) {
	f := s.fetchSlot()
	in := s.inReady(entry.Sum.Ins)
	t := max(in, f+float64(s.cfg.FrontLat)) + s.cfg.ReuseLat
	if s.DebugReuse != nil {
		s.DebugReuse(f, in, t, entry.Sum.Len)
	}
	for _, r := range entry.Sum.Outs {
		s.ready.Set(r.Loc, t)
	}
	if t > s.maxC {
		s.maxC = t
	}
	s.occupy(t)

	rtm.ApplyEntry(s.cpu, entry)
	s.res.Skipped += uint64(entry.Sum.Len)
	s.res.Retired += uint64(entry.Sum.Len)
	s.res.Hits++
	if s.col != nil {
		s.col.ReuseHit(entry)
		if s.mem.Invalidating() {
			for _, r := range entry.Sum.Outs {
				s.mem.NotifyWrite(r.Loc)
			}
		}
	}
}

func (s *Sim) finish() Result {
	if s.col != nil {
		s.col.Finish()
	}
	s.res.Cycles = max(s.maxC, s.fetchCycle)
	return s.res
}
