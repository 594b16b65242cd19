package service

import (
	"context"
	"fmt"
	"io"

	"github.com/tracereuse/tlr/internal/analytics"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/rtm"
)

// Stream passes.  The trace-driven kinds (study, rtm, vp, analyze) read
// a stream and nothing else, so jobs over one stream need it decoded
// once, not once each: Submit groups a batch's trace-backed jobs that
// share a (source key, identity-relative skip, budget) into one task,
// and the task runs them as lanes of one pass.  The pass opens and
// decodes the stream once and hands every record batch to every lane
// still running: the limit studies (study, vp) as lane groups of one
// core.StudySet, each RTM as an rtm.Replay fed batch by batch, each
// analysis as an analytics.Analyzer.  The RTM lanes of one geometry
// family (family.go) share more than the stream: the pass feeds only
// the family's leader and derives the others from it at the end.  A
// lone trace-backed job is a pass of one, so every trace-backed job runs
// through runPass.
//
// Program-backed jobs do not share a stream: a live stream would have to
// be recorded to be shared, and on the Figure-9 grid recording each
// window once and replaying its 40 RTM configurations took longer than
// the 40 live simulations it would replace.  They share simulations
// instead: a program-backed geometry family is one task that runs one
// live simulation per member it cannot derive (runFamily), and every
// other program-backed job is a task of its own.

// laneSpec is one trace-driven job: its stream and what it computes
// over it (exactly one of study, vp, rtm, analyze).
type laneSpec struct {
	src          Source
	skip, budget uint64 // skip is identity-relative (see StreamSource)

	study   *StudyParams // normalized
	vp      *VPParams
	rtm     *rtm.Config
	analyze bool
}

// laneJob builds the Job running spec.  The job carries the spec so
// Submit can group it into a pass or a geometry family.
func laneJob(id, key, kind string, spec *laneSpec) Job {
	return Job{ID: id, Key: key, Kind: kind, Run: spec.run, lane: spec}
}

// groupKey names the task a job can share with others of its batch: a
// stream pass for a trace-backed job (jobs with equal keys read the same
// records), a geometry family for a program-backed RTM job (see
// family.go).  It is empty for jobs that run alone.
func (j *Job) groupKey() string {
	spec := j.lane
	if spec == nil || j.Key == "" { // unkeyed: the stream has no identity to share
		return ""
	}
	if spec.src.prog == nil {
		return fmt.Sprintf("pass|%s|%d|%d", spec.src.Key, spec.skip, spec.budget)
	}
	if spec.rtm == nil || spec.rtm.Verify {
		return ""
	}
	return fmt.Sprintf("family|%s|%d|%d|%+v", spec.src.Key, spec.skip, spec.budget, familyOf(*spec.rtm))
}

// run computes spec on its own: over a live execution for a
// program-backed source, as a pass of one for a trace-backed one.
func (spec *laneSpec) run(ctx context.Context) (any, error) {
	if err := spec.src.validate(); err != nil {
		return nil, err
	}
	if spec.src.prog == nil {
		var v any
		var err error
		runPass([]*lane{{spec: spec, ctx: ctx}}, func(_ int, lv any, lerr error) { v, err = lv, lerr })
		return v, err
	}
	if spec.rtm != nil {
		_, v, err := spec.sim(ctx)
		return v, err
	}
	set := core.NewStudySet()
	l := &lane{spec: spec}
	if err := l.build(set); err != nil {
		return nil, err
	}
	consume := set.Consume
	if l.an != nil {
		consume = l.an.Consume
	}
	c, err := spec.src.machine(ctx, spec.skip)
	if err != nil {
		return nil, err
	}
	if _, err := c.RunContext(ctx, spec.budget, consume); err != nil {
		return nil, err
	}
	set.Finish()
	return l.result(), nil
}

// sim runs a program-backed RTM spec live and returns the finished
// simulation too, so that a geometry family can derive its other
// members from it.
func (spec *laneSpec) sim(ctx context.Context) (*rtm.Sim, any, error) {
	if err := ValidGeometry(spec.rtm.Geometry); err != nil {
		return nil, nil, err
	}
	c, err := spec.src.machine(ctx, spec.skip)
	if err != nil {
		return nil, nil, err
	}
	sim := rtm.NewSim(*spec.rtm, c)
	r, err := sim.RunContext(ctx, spec.budget)
	return sim, r, err
}

// lane is one job's engine in a pass.
type lane struct {
	spec *laneSpec
	ctx  context.Context // the job's; cancelling it ends only this lane

	result func() any // the job's result once the stream has ended
	inSet  bool       // a lane group of the pass's StudySet
	rp     *rtm.Replay
	an     *analytics.Analyzer

	leader  *lane // an RTM lane of this lane's geometry family the pass feeds instead (nil: fed itself)
	done    bool  // the lane's result was taken at the end of the stream
	derived bool  // the lane's result was derived from its leader's
}

// build sets up the lane's engine: a lane group of set for a limit
// study, an engine of its own otherwise.
func (l *lane) build(set *core.StudySet) error {
	spec := l.spec
	switch {
	case spec.study != nil:
		p := spec.study
		if p.Budget == 0 {
			return fmt.Errorf("service: study Budget must be positive")
		}
		ilr := set.ILR(core.ILRConfig{Window: p.Window, Latencies: p.ILRLatencies})
		tlr := set.TLR(core.TLRConfig{Window: p.Window, Variants: p.TLRVariants, Strict: p.Strict, MaxRunLen: p.MaxRunLen})
		var ilp *core.ILPStudy
		if len(p.ILPWindows) > 0 {
			ilp = set.ILP(p.ILPWindows)
		}
		l.inSet = true
		l.result = func() any {
			out := StudyOutput{ILR: ilr.Result(), TLR: tlr.Result()}
			if ilp != nil {
				out.DDA = ilp.Result()
			}
			return out
		}
	case spec.vp != nil:
		if spec.budget == 0 {
			return fmt.Errorf("service: VP Budget must be positive")
		}
		g := set.VP(spec.vp.Config)
		l.inSet = true
		l.result = func() any { return g.Result() }
	case spec.rtm != nil:
		if err := ValidGeometry(spec.rtm.Geometry); err != nil {
			return err
		}
		if err := spec.rtm.CheckReplay(); err != nil {
			return err
		}
		l.rp = rtm.NewReplay(*spec.rtm, nil)
		l.result = func() any { return l.rp.Finish() }
	default:
		if spec.budget == 0 {
			return fmt.Errorf("service: analyze Budget must be positive")
		}
		l.an = analytics.New()
		l.result = func() any { return l.an.Result() }
	}
	return nil
}

// runPass runs lanes, which share one (source key, skip, budget), as one
// pass over the stream, and calls end once per lane (by index) with its
// result as soon as it is known.  A lane that cannot start, or whose
// context is cancelled, ends alone — the cancelled one at the next
// record batch, with its context's error — while the others run on;
// only a stream that fails to open or decode ends every lane still
// running.
//
// Of each geometry family among the RTM lanes only the leader is fed;
// the others take their results from it when the stream ends
// (rtm.Replay.ResultAs).  Those it cannot answer, and those whose leader
// was cancelled, run straight after as a pass of their own.
func runPass(lanes []*lane, end func(i int, v any, err error)) {
	set := core.NewStudySet()
	var live []int
	for i, l := range lanes {
		err := l.build(set)
		if err == nil {
			_, err = l.spec.src.streamSkip(l.spec.skip)
		}
		if err != nil {
			end(i, nil, err)
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return
	}
	live, followers := lead(lanes, live)
	fail := func(err error) {
		for _, i := range append(live, followers...) {
			end(i, nil, err)
		}
	}
	spec := lanes[live[0]].spec
	st, err := spec.src.openStream(spec.skip)
	if err != nil {
		fail(err)
		return
	}
	defer st.Close()

	// running ends the lanes of ids whose context is cancelled and
	// returns the others.
	running := func(ids []int) []int {
		k := 0
		for _, i := range ids {
			if err := lanes[i].ctx.Err(); err != nil {
				end(i, nil, err)
				continue
			}
			ids[k] = i
			k++
		}
		return ids[:k]
	}
	budget := spec.budget
	for n := uint64(0); n < budget; {
		live, followers = running(live), running(followers)
		if len(live) == 0 {
			break
		}
		inSet := false
		for _, i := range live {
			inSet = inSet || lanes[i].inSet
		}
		batch, err := st.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
			return
		}
		if want := budget - n; uint64(len(batch)) > want {
			batch = batch[:want]
		}
		n += uint64(len(batch))
		if inSet {
			for i := range batch {
				set.Consume(&batch[i])
			}
		}
		for _, i := range live {
			l := lanes[i]
			switch {
			case l.rp != nil:
				l.rp.Feed(batch, budget)
			case l.an != nil:
				for r := range batch {
					l.an.Consume(&batch[r])
				}
			}
		}
	}
	if len(live) > 0 {
		set.Finish()
		for _, i := range live {
			l := lanes[i]
			v := l.result()
			l.done = true
			end(i, v, nil)
		}
	}

	var alone []*lane
	var at []int
	for _, i := range followers {
		l := lanes[i]
		if err := l.ctx.Err(); err != nil {
			end(i, nil, err)
			continue
		}
		if l.leader.done {
			if r, ok := l.leader.rp.ResultAs(l.spec.rtm.Geometry); ok {
				l.derived = true
				end(i, r, nil)
				continue
			}
		}
		alone = append(alone, &lane{spec: l.spec, ctx: l.ctx})
		at = append(at, i)
	}
	if len(alone) > 0 {
		runPass(alone, func(j int, v any, err error) {
			lanes[at[j]].derived = alone[j].derived
			end(at[j], v, err)
		})
	}
}
