package rtm

import (
	"context"
	"fmt"
	"strings"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
)

// Heuristic selects the dynamic trace-collection policy of §4.6.
type Heuristic int

// The paper's three collection heuristics.
const (
	// ILRNE: a trace is a run of instructions reusable at instruction
	// level (per the finite IRB); no expansion.
	ILRNE Heuristic = iota
	// ILREXP: like ILRNE, but a reused trace is dynamically expanded
	// with the reusable instructions (or further reused traces) that
	// follow it.
	ILREXP
	// IEXP: traces are fixed runs of N instructions of any kind; a
	// reused trace is expanded with N more instructions.
	IEXP
)

// String returns the paper's name for the heuristic, which is its wire
// spelling except for I(n) EXP.
func (h Heuristic) String() string {
	if h == IEXP {
		return "I(n) EXP"
	}
	name, _ := h.MarshalText() // never fails
	return string(name)
}

// MarshalText returns the heuristic's wire spelling ("ILR NE", "ILR
// EXP", "IEXP").
func (h Heuristic) MarshalText() ([]byte, error) {
	switch h {
	case ILRNE:
		return []byte("ILR NE"), nil
	case ILREXP:
		return []byte("ILR EXP"), nil
	case IEXP:
		return []byte("IEXP"), nil
	default:
		return []byte(fmt.Sprintf("heuristic(%d)", int(h))), nil
	}
}

// UnmarshalText parses a wire heuristic name, accepting the paper's
// spellings ("ILR NE", "ILR EXP", "I(n) EXP") as well as the compact
// forms ("ILRNE", "ILREXP", "IEXP").  Empty means ILR NE.
func (h *Heuristic) UnmarshalText(text []byte) error {
	switch strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(string(text)), "_", " ")) {
	case "", "ILR NE", "ILRNE":
		*h = ILRNE
	case "ILR EXP", "ILREXP":
		*h = ILREXP
	case "IEXP", "I(N) EXP", "I EXP":
		*h = IEXP
	default:
		return fmt.Errorf("rtm: unknown heuristic %q", text)
	}
	return nil
}

// Config configures one realistic RTM simulation.
type Config struct {
	Geometry  Geometry
	Heuristic Heuristic
	N         int // I(n) EXP chunk size; ignored by the ILR heuristics
	MinLen    int // minimum stored trace length (default 1)

	// InvalidateOnWrite selects the paper's §3.3 valid-bit reuse test:
	// the reuse test only checks that the entry is still valid, and any
	// architectural write kills every entry reading that location.
	InvalidateOnWrite bool

	// Verify cross-checks every reuse hit against real execution on a
	// cloned CPU and fails the run on any state divergence.  It is the
	// package's differential correctness oracle (slow; tests only).
	Verify bool
}

// Result summarises one simulation.
type Result struct {
	Executed uint64 // instructions actually executed
	Skipped  uint64 // instructions skipped through trace reuse
	Hits     uint64 // reuse operations
	RTM      Stats
	Stored   int
	IRBRate  float64
	// Top holds the most-reused stored traces (up to 10), the
	// profiler's answer to "where does the reuse live?".
	Top []TraceProfile
}

// Total returns all retired instructions (executed + skipped).
func (r Result) Total() uint64 { return r.Executed + r.Skipped }

// ReusedFraction is the paper's Fig. 9a metric: skipped / total.
func (r Result) ReusedFraction() float64 {
	if r.Total() == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(r.Total())
}

// AvgReusedLen is the paper's Fig. 9b metric: mean reused trace size.
func (r Result) AvgReusedLen() float64 {
	if r.Hits == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(r.Hits)
}

// Sim couples a CPU with an RTM: at every fetch it runs the reuse test,
// skipping reused traces, and feeds executed instructions to the
// trace-collection heuristic.
type Sim struct {
	run
	cfg Config
	cpu *cpu.CPU
}

// run is the bookkeeping Sim and Replay share: the trace memory, the
// collection heuristic feeding it, and the run's counts.
type run struct {
	rtm *RTM
	col collector

	executed uint64
	skipped  uint64
	hits     uint64
}

// NewSim builds a simulation over an existing CPU (typically fresh).
func NewSim(cfg Config, c *cpu.CPU) *Sim {
	m := New(cfg.Geometry, cfg.MinLen)
	if cfg.InvalidateOnWrite {
		m.EnableInvalidation()
	}
	return &Sim{run: run{rtm: m, col: newCollector(cfg, m)}, cfg: cfg, cpu: c}
}

// newCollector builds the configured trace-collection heuristic over m;
// Sim, Replay and NewCollector share it, so every drive mode collects
// identically.
func newCollector(cfg Config, m *RTM) collector {
	switch cfg.Heuristic {
	case ILRNE, ILREXP:
		return &ilrCollector{rtm: m, irb: NewIRB(cfg.Geometry), expand: cfg.Heuristic == ILREXP}
	case IEXP:
		return &fixedCollector{rtm: m, n: max(cfg.N, 1)}
	default:
		panic(fmt.Sprintf("rtm: unknown heuristic %d", cfg.Heuristic))
	}
}

// CPU returns the simulated machine.
func (s *Sim) CPU() *cpu.CPU { return s.cpu }

// RTM returns the trace memory.
func (s *Sim) RTM() *RTM { return s.rtm }

// Run retires up to budget instructions (executed + skipped), stopping
// early at HALT.  It returns the result and the first error (wild PC, or a
// Verify divergence).
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
	for s.executed+s.skipped < budget && !s.cpu.Halted() {
		if iter%cpu.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return s.result(), err
			}
		}
		iter++
		if entry := s.rtm.Lookup(s.cpu.PC(), s.cpu); entry != nil {
			if s.cfg.Verify {
				if err := s.verify(entry); err != nil {
					return s.result(), err
				}
			}
			applyEntry(s.cpu, entry)
			s.skipped += uint64(entry.Sum.Len)
			s.hits++
			s.col.reuseHit(entry)
			// Valid-bit mode: the reused trace's writes invalidate,
			// after the collector has stored any trace that ended
			// before this reuse (hardware stores at trace end, so
			// those entries predate these writes).
			for _, r := range entry.Sum.Outs {
				s.rtm.NotifyWrite(r.Loc)
			}
			continue
		}
		if err := s.cpu.Step(&e); err != nil {
			return s.result(), err
		}
		s.executed++
		s.col.observe(&e)
		for _, r := range e.Outputs() {
			s.rtm.NotifyWrite(r.Loc)
		}
	}
	s.col.finish()
	return s.result(), nil
}

// result is the run's Result so far.
func (r *run) result() Result { return r.resultAs(r.rtm.geom.Sets) }

// resultAs is the run's Result with Top listed as an RTM of sets sets
// would list it.
func (r *run) resultAs(sets int) Result {
	return Result{
		Executed: r.executed,
		Skipped:  r.skipped,
		Hits:     r.hits,
		RTM:      r.rtm.Stats(),
		Stored:   r.rtm.Stored(),
		IRBRate:  r.col.irbRate(),
		Top:      r.rtm.topTraces(10, sets),
	}
}

// ResultAs returns the Result that the same run, under geometry g in
// place of its own, would have produced — when the run proves it: ok
// holds only when g differs from the run's geometry in Sets alone, g.Sets
// is a multiple of it, and the run never evicted a PC slot from the RTM
// (Stats.PCEvicts) or from the ILR heuristics' IRB.  Call it once the
// run has ended (after Run, or Replay's Finish).
//
// Why that suffices: the geometry enters a run only where a PC is
// mapped to a set, in the RTM and in the IRB (which shares it).  Every
// other piece of state — a slot's traces or input vectors and their
// LRU order, the LRU ticks, the collectors' summarizers, the counters —
// is kept per PC or globally, and trace evictions happen within one
// PC's slot.  With g.Sets a multiple of the run's, each of g's sets
// takes the PCs of one of the run's sets, or fewer: a set that never
// overflowed under the run's geometry never overflows under g, so no
// PC is ever evicted under g either.  Without evictions, finding a PC's
// slot gives the same answer under both geometries at every step, and
// by induction over the run's steps the two runs make every lookup,
// insert, reuse and collection alike.  This is the inclusion argument
// of Mattson et al.'s one-pass stack simulation (IBM Sys. J. 9(2),
// 1970).  Only the set layout differs, and the one result it shows in
// is the tie order of Top, which topTraces reproduces for g.
func (r *run) ResultAs(g Geometry) (Result, bool) {
	own := r.rtm.geom
	if g.PCWays != own.PCWays || g.TracesPerPC != own.TracesPerPC ||
		g.Sets < own.Sets || g.Sets%own.Sets != 0 ||
		r.rtm.stats.PCEvicts != 0 || r.col.irbSlotEvicts() != 0 {
		return Result{}, false
	}
	return r.resultAs(g.Sets), true
}

// applyEntry performs the processor-state update of §3.3: write every
// trace output and redirect the PC past the trace.
func applyEntry(c *cpu.CPU, e *Entry) {
	for _, r := range e.Sum.Outs {
		c.WriteLoc(r.Loc, r.Val)
	}
	c.SetPC(e.Sum.Next)
}

// verify executes the trace's instructions on a cloned CPU and checks the
// shortcut reaches the identical architectural state.
func (s *Sim) verify(entry *Entry) error {
	clone := s.cpu.Clone()
	var e trace.Exec
	for i := 0; i < entry.Sum.Len; i++ {
		if err := clone.Step(&e); err != nil {
			return fmt.Errorf("rtm verify: replaying trace@%d: %w", entry.Sum.StartPC, err)
		}
	}
	if clone.PC() != entry.Sum.Next {
		return fmt.Errorf("rtm verify: trace@%d: next PC %d, execution reached %d",
			entry.Sum.StartPC, entry.Sum.Next, clone.PC())
	}
	for _, r := range entry.Sum.Outs {
		if got := clone.ReadLoc(r.Loc); got != r.Val {
			return fmt.Errorf("rtm verify: trace@%d: output %v recorded %#x, execution produced %#x",
				entry.Sum.StartPC, r.Loc, r.Val, got)
		}
	}
	// The outputs plus untouched state must reconstruct the full state:
	// apply to a second clone and compare everything.
	applied := s.cpu.Clone()
	applyEntry(applied, entry)
	for i := 0; i < 32; i++ {
		n := uint8(i)
		if applied.Reg(n) != clone.Reg(n) {
			return fmt.Errorf("rtm verify: trace@%d: r%d applied %#x, executed %#x",
				entry.Sum.StartPC, n, applied.Reg(n), clone.Reg(n))
		}
		if applied.FReg(n) != clone.FReg(n) {
			return fmt.Errorf("rtm verify: trace@%d: f%d applied %#x, executed %#x",
				entry.Sum.StartPC, n, applied.FReg(n), clone.FReg(n))
		}
	}
	if !applied.Mem().Equal(clone.Mem()) {
		return fmt.Errorf("rtm verify: trace@%d: memory divergence", entry.Sum.StartPC)
	}
	return nil
}

// collector is a dynamic trace-collection heuristic.
type collector interface {
	observe(e *trace.Exec)
	reuseHit(entry *Entry)
	finish()
	irbRate() float64
	irbSlotEvicts() uint64 // PC slots the IRB evicted (0 without an IRB)
}

// Both collectors own one Summarizer per role for their whole run and
// reset it between traces; an empty Summarizer means no trace is being
// built in that role.  A stored entry is never empty (Len >= MinLen >= 1),
// so a pending Summarizer seeded from one is non-empty while its
// expansion lasts.  RTM.Insert copies a summary only when it stores it.

// ilrCollector implements ILR NE and ILR EXP.
type ilrCollector struct {
	rtm    *RTM
	irb    *IRB
	expand bool

	cur trace.Summarizer // trace being collected (reusable instructions)

	pending    trace.Summarizer // expansion of a reused trace (EXP only)
	pendingLen int              // length of the seed entry
}

func (c *ilrCollector) observe(e *trace.Exec) {
	reusable := c.irb.TestAndRecord(e)
	if !reusable {
		c.finalizeCur()
		c.finalizePending()
		return
	}
	if !c.cur.TryAdd(e, entryCaps) {
		// Entry format full: store what we have, restart at e.
		c.finalizeCur()
		c.cur.TryAdd(e, entryCaps)
	}
	if !c.pending.Empty() {
		if !c.pending.TryAdd(e, entryCaps) {
			c.finalizePending()
		}
	}
}

func (c *ilrCollector) reuseHit(entry *Entry) {
	c.finalizeCur()
	if !c.expand {
		return
	}
	if !c.pending.Empty() {
		// Two consecutive traces reused: merge them into one entry.
		if c.pending.NextPC() == entry.Sum.StartPC && c.pending.TryMerge(&entry.Sum, entryCaps) {
			return
		}
		c.finalizePending()
	}
	c.pending.Seed(&entry.Sum)
	c.pendingLen = entry.Sum.Len
}

func (c *ilrCollector) finish() {
	c.finalizeCur()
	c.finalizePending()
}

func (c *ilrCollector) irbRate() float64 { return c.irb.HitRate() }

func (c *ilrCollector) irbSlotEvicts() uint64 { return c.irb.slotEvicts }

func (c *ilrCollector) finalizeCur() {
	if !c.cur.Empty() {
		c.rtm.Insert(*c.cur.Current())
	}
	c.cur.Reset()
}

func (c *ilrCollector) finalizePending() {
	if c.pending.Len() > c.pendingLen {
		c.rtm.Insert(*c.pending.Current())
	}
	c.pending.Reset()
}

// fixedCollector implements I(n) EXP: fixed n-instruction traces of any
// instructions, expanded by n on reuse.
type fixedCollector struct {
	rtm *RTM
	n   int

	cur trace.Summarizer

	pending      trace.Summarizer
	pendingBase  int // length of the seed entry
	pendingExtra int // instructions appended since the seed
}

func (c *fixedCollector) observe(e *trace.Exec) {
	if e.SideEffect {
		// OUT/HALT can never be replayed from a table: close both
		// builders before it.
		c.finalizeCur()
		c.finalizePending()
		return
	}
	if !c.cur.TryAdd(e, entryCaps) {
		c.finalizeCur()
		c.cur.TryAdd(e, entryCaps)
	}
	if c.cur.Len() >= c.n {
		c.finalizeCur()
	}

	if !c.pending.Empty() {
		if !c.pending.TryAdd(e, entryCaps) {
			c.finalizePending()
		} else {
			c.pendingExtra++
			if c.pendingExtra >= c.n {
				c.finalizePending()
			}
		}
	}
}

func (c *fixedCollector) reuseHit(entry *Entry) {
	// A partial fixed-length trace interrupted by a hit is an arbitrary
	// cut: drop it rather than polluting the table.
	c.cur.Reset()
	if !c.pending.Empty() {
		// Consecutive reuses: merge the new trace into the expansion.
		if c.pending.NextPC() == entry.Sum.StartPC && c.pending.TryMerge(&entry.Sum, entryCaps) {
			c.pendingExtra += entry.Sum.Len
			if c.pendingExtra >= c.n {
				c.finalizePending()
			}
			return
		}
		c.finalizePending()
	}
	c.pending.Seed(&entry.Sum)
	c.pendingBase = entry.Sum.Len
	c.pendingExtra = 0
}

func (c *fixedCollector) finish() {
	c.finalizeCur()
	c.finalizePending()
}

func (c *fixedCollector) irbRate() float64 { return 0 }

func (c *fixedCollector) irbSlotEvicts() uint64 { return 0 }

func (c *fixedCollector) finalizeCur() {
	if !c.cur.Empty() {
		c.rtm.Insert(*c.cur.Current())
	}
	c.cur.Reset()
}

func (c *fixedCollector) finalizePending() {
	if c.pending.Len() > c.pendingBase {
		c.rtm.Insert(*c.pending.Current())
	}
	c.pending.Reset()
}
