package core

import (
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// StudySet evaluates several limit studies over one dynamic stream as
// lane groups of one machine set.  The studies of one stream differ only
// in how they time it, so everything else is done once per record for
// the whole set:
//
//   - one History classifies every record for the ILR and TLR studies;
//   - one multi-lane dda.Clock times every machine.  A base machine
//     (no reuse) is the same machine in every study of its window size,
//     so identical base machines are one lane;
//   - one buffer holds the current run of reusable records, and one
//     Summarizer per distinct run rule (unbounded, block-bounded, capped
//     at N) summarises its traces for every TLR study cutting runs that
//     way, strict or not;
//   - one last-value table serves every VP study.
//
// Lanes never read each other's state, so every study's result is
// exactly what it would be alone.  Records of a reusable run are timed
// once the run ends (or once every rule has cut it), in stream order on
// every lane, so each lane sees the same sequence of retires it would
// in a study of its own.
//
// Add every study before the first record; the lanes are fixed then.
type StudySet struct {
	clk     *dda.Clock
	windows []int // per lane, fixed when clk is built
	bases   []int // lanes of the base machines, one per distinct window
	hist    *History

	ilr   []*ILRStudy
	tlr   []*TLRStudy
	vp    []*VPStudy
	rules []*runRule
	last  lastOutputs // PC -> outputs of the previous execution (VP)

	run []trace.Exec // buffered run of reusable records (TLR)

	in    []float64 // per-lane scratch: input-ready times
	done  []float64 // per-lane completion times
	value []float64 // per-lane value-ready times (VP lanes differ)
	occ   []bool    // per-lane window occupancy

	n, reusable, predicted int64
}

// NewStudySet returns an empty set.
func NewStudySet() *StudySet { return &StudySet{} }

// ILR adds an instruction-level reuse study to the set.
func (s *StudySet) ILR(cfg ILRConfig) *ILRStudy {
	g := &ILRStudy{set: s, cfg: cfg, base: s.baseLane(cfg.Window)}
	g.first = s.addLanes(len(cfg.Latencies), cfg.Window)
	s.ilr = append(s.ilr, g)
	return g
}

// TLR adds a trace-level reuse study to the set.
func (s *StudySet) TLR(cfg TLRConfig) *TLRStudy {
	g := &TLRStudy{set: s, cfg: cfg, base: s.baseLane(cfg.Window), rule: s.rule(cfg)}
	g.first = s.addLanes(len(cfg.Variants), cfg.Window)
	g.tTrace = make([]float64, len(cfg.Variants))
	if cfg.Strict && g.rule.strict == nil {
		g.rule.strict = NewTraceHistory()
	}
	s.tlr = append(s.tlr, g)
	return g
}

// VP adds a value-prediction study to the set.
func (s *StudySet) VP(cfg VPConfig) *VPStudy {
	if cfg.PredLat == 0 {
		cfg.PredLat = 1
	}
	g := &VPStudy{set: s, cfg: cfg, base: s.baseLane(cfg.Window)}
	g.lane = s.addLanes(1, cfg.Window)
	s.vp = append(s.vp, g)
	return g
}

// ILP adds the base machines of the given window sizes (0 or negative =
// infinite): the dynamic-dependence-analysis limit of the stream with no
// reuse.
func (s *StudySet) ILP(windows []int) *ILPStudy {
	g := &ILPStudy{set: s}
	for _, w := range windows {
		g.lanes = append(g.lanes, s.baseLane(w))
	}
	return g
}

// baseLane returns the lane of the base machine of window w, adding it
// on first use.
func (s *StudySet) baseLane(w int) int {
	w = max(w, 0)
	for _, b := range s.bases {
		if s.windows[b] == w {
			return b
		}
	}
	lane := s.addLanes(1, w)
	s.bases = append(s.bases, lane)
	return lane
}

// addLanes appends k lanes of window w, returning the first.
func (s *StudySet) addLanes(k, w int) int {
	if s.clk != nil {
		panic("core: study added to a StudySet after its first record")
	}
	first := len(s.windows)
	for range k {
		s.windows = append(s.windows, max(w, 0))
	}
	return first
}

// rule returns the set's run rule for cfg's trace bounds, adding it on
// first use.
func (s *StudySet) rule(cfg TLRConfig) *runRule {
	maxLen := max(cfg.MaxRunLen, 0)
	for _, r := range s.rules {
		if r.maxLen == maxLen && r.block == cfg.BlockBounded {
			return r
		}
	}
	r := &runRule{maxLen: maxLen, block: cfg.BlockBounded}
	s.rules = append(s.rules, r)
	return r
}

// seal builds the clock once the lanes are known.
func (s *StudySet) seal() {
	if s.clk != nil {
		return
	}
	k := len(s.windows)
	s.clk = dda.New(s.windows)
	s.in = make([]float64, k)
	s.done = make([]float64, k)
	s.value = make([]float64, k)
	s.occ = occupying(k)
}

// Consume processes one dynamic instruction on every study of the set,
// classifying it against the set's own history table.
func (s *StudySet) Consume(e *trace.Exec) {
	reusable := false
	if len(s.ilr)+len(s.tlr) > 0 {
		if s.hist == nil {
			s.hist = NewHistory()
		}
		reusable = s.hist.Observe(e)
	}
	s.consumeClassified(e, reusable)
}

// consumeClassified processes one dynamic instruction whose reusability
// is already decided.
func (s *StudySet) consumeClassified(e *trace.Exec, reusable bool) {
	s.seal()
	s.n++
	if reusable {
		s.reusable++
	}
	if len(s.tlr) == 0 {
		s.retire(e, reusable)
		return
	}
	if !reusable {
		s.flush()
		s.retire(e, false)
		return
	}
	s.run = append(s.run, *e)
	cut := true
	for _, r := range s.rules {
		r.cur++
		if (r.maxLen > 0 && r.cur >= r.maxLen) || (r.block && isa.InfoOf(e.Op).Branch) {
			r.ends = append(r.ends, len(s.run))
			r.cur = 0
		}
		cut = cut && r.cur == 0
	}
	if cut {
		// Every rule has ended a trace here: nothing later changes how
		// the buffered records are timed.
		s.flush()
	}
}

// Finish times the trailing run; call once after the stream ends.
func (s *StudySet) Finish() {
	s.seal()
	s.flush()
}

// flush times the buffered run: trace by trace for every TLR study, in
// stream order on every lane.
func (s *StudySet) flush() {
	if len(s.run) == 0 {
		return
	}
	for _, r := range s.rules {
		if r.cur > 0 {
			r.ends = append(r.ends, len(s.run))
			r.cur = 0
		}
		r.start, r.next = 0, 0
	}
	for i := range s.run {
		for _, r := range s.rules {
			if i == r.start {
				s.startTrace(r, s.run[i:r.ends[r.next]])
			}
		}
		s.retire(&s.run[i], true)
		for _, r := range s.rules {
			if i+1 == r.ends[r.next] {
				r.start = i + 1
				r.next++
			}
		}
	}
	s.run = s.run[:0]
	for _, r := range s.rules {
		r.ends = r.ends[:0]
	}
}

// startTrace summarises the trace tr of rule r and decides, for every
// TLR study cutting runs by r, whether it is reused and when its outputs
// are ready.  The clock holds every record before tr, so a live-in's
// ready time is the one its first read inside tr sees.
func (s *StudySet) startTrace(r *runRule, tr []trace.Exec) {
	r.sum.Reset()
	for i := range tr {
		r.sum.Add(&tr[i])
	}
	sum := r.sum.Current()
	seen := true
	if r.strict != nil {
		// Strict mode: the whole trace must have been seen before.
		seen = r.strict.Observe(sum)
	}
	for _, g := range s.tlr {
		if g.rule != r {
			continue
		}
		g.reusing = seen || !g.cfg.Strict
		if !g.reusing {
			continue
		}
		g.stats.Add(sum)
		g.reused += int64(sum.Len)
		// All trace outputs become available one reuse latency after the
		// trace's live-ins are ready (§4.5).
		s.clk.ReadyMax(sum.Ins, g.first, g.tTrace)
		for j, v := range g.cfg.Variants {
			g.tTrace[j] += v.Of(len(sum.Ins), len(sum.Outs))
		}
	}
}

// retire times e on every lane and retires it.  reusable is e's
// instruction-level classification; a TLR study's lanes reuse e when it
// lies inside that study's current reused trace.
func (s *StudySet) retire(e *trace.Exec, reusable bool) {
	clk := s.clk
	clk.InReady(e, s.in)
	lat := float64(e.Lat)
	for j, in := range s.in {
		s.done[j] = max(in, clk.WindowBound(j)) + lat
	}
	if reusable {
		for _, g := range s.ilr {
			// Oracle: the better of reuse and normal execution.
			for k, l := range g.cfg.Latencies {
				j := g.first + k
				if r := max(s.in[j], clk.WindowBound(j)) + l; r < s.done[j] {
					s.done[j] = r
				}
			}
		}
		for _, g := range s.tlr {
			if !g.reusing {
				continue
			}
			for k, t := range g.tTrace {
				j := g.first + k
				// Oracle: never worse than normal dataflow execution.
				if normal := s.in[j] + lat; normal < t {
					t = normal
				}
				s.done[j] = t
				s.occ[j] = false // reused: no fetch, no window slot
			}
		}
	}
	value := s.done
	if len(s.vp) > 0 {
		value = s.value
		copy(value, s.done)
		// Nothing to value-predict without outputs; control flow is the
		// branch predictor's job, not the value predictor's.
		if !e.SideEffect && e.NOut > 0 && s.last.swap(e.PC, e.Outputs()) {
			s.predicted++
			for _, g := range s.vp {
				// Consumers see the predicted outputs as soon as the
				// prediction is made; validation still completes at done.
				if v := clk.WindowBound(g.lane) + g.cfg.PredLat; v < value[g.lane] {
					value[g.lane] = v
				}
			}
		}
	}
	clk.Retire(e, s.done, value, s.occ)
	if reusable {
		for _, g := range s.tlr {
			if g.reusing {
				for k := range g.tTrace {
					s.occ[g.first+k] = true
				}
			}
		}
	}
}

// speedups returns the cycles of lanes first..first+k-1 and their
// speed-ups over the base lane.
func (s *StudySet) speedups(base, first, k int) (cycles, speedups []float64) {
	s.seal()
	b := s.clk.Cycles(base)
	for j := first; j < first+k; j++ {
		c := s.clk.Cycles(j)
		cycles = append(cycles, c)
		sp := 0.0
		if c > 0 {
			sp = b / c
		}
		speedups = append(speedups, sp)
	}
	return cycles, speedups
}

// runRule is one way of cutting a run of reusable records into traces:
// at a length cap, at control flow, or only where the run ends.  TLR
// studies with equal rules share its Summarizer, and strict ones its
// trace history.
type runRule struct {
	maxLen int  // cap on trace length (0 = none)
	block  bool // end traces at control-flow instructions

	cur    int   // records of the buffered run since the last cut
	ends   []int // ends (exclusive) of the buffered run's traces
	start  int   // while timing the run: first record of the current trace
	next   int   // while timing the run: index of its end in ends
	sum    trace.Summarizer
	strict *TraceHistory // nil unless a strict study uses the rule
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

// ILPStudy is a set's base machines at several window sizes.
type ILPStudy struct {
	set   *StudySet
	lanes []int
}

// Result returns one Point per window, in the order given to ILP.
func (g *ILPStudy) Result() []dda.Point {
	g.set.seal()
	clk := g.set.clk
	out := make([]dda.Point, len(g.lanes))
	for i, j := range g.lanes {
		out[i] = dda.Point{
			Window:       clk.Window(j),
			Cycles:       clk.Cycles(j),
			IPC:          clk.IPC(j),
			Instructions: clk.Instructions(),
		}
	}
	return out
}
