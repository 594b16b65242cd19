package service

import (
	"sort"
	"time"

	"github.com/tracereuse/tlr/internal/rtm"
)

// Geometry families.  An RTM run that never evicts a PC slot, from the
// RTM or from its IRB, is step for step the run of every geometry that
// differs from its own only in a multiple of the set count, so its
// result answers all of them exactly (rtm.Sim.ResultAs and
// rtm.Replay.ResultAs; the proof is on ResultAs).  Figure 9's 32K and
// 256K RTMs (256x8x16 and 2048x8x16) are such a pair, and most 32K runs
// never evict.
//
// A family is the keyed, non-Verify RTM jobs of one batch that share a
// source key, skip and budget and whose configurations are equal but
// for Geometry.Sets.  Submit makes each program-backed family one task
// (runFamily); a trace-backed family is already part of one stream pass
// and runPass feeds only its leader.  Every member still keeps its own
// key, cache and disk-tier lookup, coalescing, cancellation,
// persistence and delivery; a derived result counts in
// tlr_jobs_derived_total, not as a run.  A family of one is a lone job.

// familyOf is cfg without its set count: RTM configurations of one
// family have equal familyOf.
func familyOf(cfg rtm.Config) rtm.Config {
	cfg.Geometry.Sets = 0
	return cfg
}

// sets returns the set count of an RTM job's geometry.
func sets(spec *laneSpec) int { return spec.rtm.Geometry.Sets }

// lead picks, among the RTM lanes of live, each family's leader: its
// lane with the fewest sets.  It returns the lanes the pass must feed —
// every lane but the leaders' followers — and the followers, each
// pointing at its leader.
func lead(lanes []*lane, live []int) (fed, followers []int) {
	leaders := make(map[rtm.Config]*lane)
	for _, i := range live {
		l := lanes[i]
		if l.rp == nil {
			continue
		}
		f := familyOf(*l.spec.rtm)
		if cur := leaders[f]; cur == nil || sets(l.spec) < sets(cur.spec) {
			leaders[f] = l
		}
	}
	for _, i := range live {
		l := lanes[i]
		if l.rp != nil {
			if ld := leaders[familyOf(*l.spec.rtm)]; ld != l {
				l.leader = ld
				followers = append(followers, i)
				continue
			}
		}
		fed = append(fed, i)
	}
	return fed, followers
}

// runFamily runs the members of a program-backed family that claim let
// run, fewest sets first: each live simulation answers every later
// member it provably equals, and a member it cannot answer — or every
// member, when the simulation fails or is cancelled — runs its own
// simulation in turn, which may answer the members after it.
func (s *Service) runFamily(run []*member) {
	sort.SliceStable(run, func(i, j int) bool { return sets(run[i].job.lane) < sets(run[j].job.lane) })
	for len(run) > 0 {
		m := run[0]
		run = run[1:]
		start := time.Now()
		sim, v, err := m.job.lane.sim(m.ctx)
		s.complete(m, v, err, time.Since(start))
		if err != nil {
			continue
		}
		rest := run[:0]
		for _, f := range run {
			r, ok := sim.ResultAs(f.job.lane.rtm.Geometry)
			switch {
			case !ok:
				rest = append(rest, f)
			case f.ctx.Err() != nil:
				s.complete(f, nil, f.ctx.Err(), 0)
			default:
				f.derived = true
				s.complete(f, r, nil, 0)
			}
		}
		run = rest
	}
}
