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
// analysis as an analytics.Analyzer.  A lone trace-backed job is a pass
// of one, so every trace-backed job runs through runPass.
//
// Program-backed jobs stay one per task: a live stream would have to be
// recorded to be shared, and on the Figure-9 grid recording each window
// once and replaying its 40 RTM configurations took longer than the 40
// live simulations it would replace.

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

// laneJob builds the Job running spec.  Trace-backed jobs carry the spec
// so Submit can group them into passes.
func laneJob(id, key, kind string, spec *laneSpec) Job {
	j := Job{ID: id, Key: key, Kind: kind, Run: spec.run}
	if spec.src.open != nil {
		j.lane = spec
	}
	return j
}

// passKey names the pass a job can share: jobs with equal keys read
// the same records.  It is empty for jobs that run alone.
func (j *Job) passKey() string {
	if j.lane == nil || j.Key == "" { // unkeyed: the stream has no identity to share
		return ""
	}
	return fmt.Sprintf("%s|%d|%d", j.lane.src.Key, j.lane.skip, j.lane.budget)
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
		if err := ValidGeometry(spec.rtm.Geometry); err != nil {
			return nil, err
		}
		c, err := spec.src.machine(ctx, spec.skip)
		if err != nil {
			return nil, err
		}
		return rtm.NewSim(*spec.rtm, c).RunContext(ctx, spec.budget)
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

// lane is one job's engine in a pass.
type lane struct {
	spec *laneSpec
	ctx  context.Context // the job's; cancelling it ends only this lane

	result func() any // the job's result once the stream has ended
	inSet  bool       // a lane group of the pass's StudySet
	rp     *rtm.Replay
	an     *analytics.Analyzer
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
		g := set.VP(core.VPConfig{Window: spec.vp.Window, PredLat: spec.vp.PredLat})
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
	fail := func(err error) {
		for _, i := range live {
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

	budget := spec.budget
	for n := uint64(0); n < budget; {
		k, inSet := 0, false
		for _, i := range live {
			if err := lanes[i].ctx.Err(); err != nil {
				end(i, nil, err)
				continue
			}
			live[k] = i
			k++
			inSet = inSet || lanes[i].inSet
		}
		live = live[:k]
		if k == 0 {
			return
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
	set.Finish()
	for _, i := range live {
		end(i, lanes[i].result(), nil)
	}
}
