package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// geometry128K is a family member between Figure 9's 32K and 256K RTMs,
// so a family can chain: a 32K run that cannot answer 128K may still
// leave 128K's own run to answer 256K.
var geometry128K = rtm.Geometry{Sets: 1024, PCWays: 8, TracesPerPC: 16}

// familyHeuristics are the collection heuristics the family tests cross
// with every geometry: both ILR heuristics (which carry an IRB) and one
// fixed-length one.
var familyHeuristics = []rtm.Config{{Heuristic: rtm.ILRNE}, {Heuristic: rtm.ILREXP}, {Heuristic: rtm.IEXP, N: 4}}

var familyGeometries = []rtm.Geometry{rtm.Geometry4K, rtm.Geometry32K, geometry128K, rtm.Geometry256K}

// familyJobs returns, for each skip, RTM cells over src for every family
// heuristic and geometry (4K is a family of its own), plus a study cell
// so that a trace-backed family shares its pass with other lanes.
func familyJobs(src Source, skips []uint64, budget uint64) []Job {
	var jobs []Job
	for _, skip := range skips {
		for _, h := range familyHeuristics {
			for _, g := range familyGeometries {
				cfg := h
				cfg.Geometry = g
				jobs = append(jobs, RTMJob(fmt.Sprintf("%s/%v/%d@%d", src.Key, cfg.Heuristic, g.Sets, skip), src,
					RTMParams{Config: cfg, Skip: skip, Budget: budget}))
			}
		}
		jobs = append(jobs, StudyJob(fmt.Sprintf("%s/study@%d", src.Key, skip), src, StudyParams{Budget: budget, Skip: skip, Window: 256}))
	}
	return jobs
}

var (
	familyTraceOnce sync.Once
	familyTraces    map[string]*tracefile.Trace
)

// familyRecordings returns gcc's and tomcatv's first passRecords
// records, recorded once; tomcatv's ILR EXP runs evict IRB slots.
func familyRecordings(t *testing.T) map[string]*tracefile.Trace {
	t.Helper()
	familyTraceOnce.Do(func() {
		familyTraces = make(map[string]*tracefile.Trace)
		for _, name := range []string{"gcc", "tomcatv"} {
			rec := tracefile.NewRecorder()
			if _, err := cpu.New(program(t, name)).RunContext(context.Background(), passRecords, rec.Write); err != nil {
				t.Fatal(err)
			}
			familyTraces[name] = rec.Trace()
		}
	})
	return familyTraces
}

func program(t *testing.T, name string) *isa.Program {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// derivedRTM reads the derived-delivery counter for RTM jobs.
func derivedRTM(s *Service) uint64 {
	v, _ := s.Metrics().Value("tlr_jobs_derived_total", "rtm")
	return uint64(v)
}

// TestFamilyEquivalence runs geometry families, program-backed and
// trace-backed, every way a batch can hold them — each member alone,
// all in one batch, shuffled with duplicates — at 1, 2 and 4 workers,
// and requires every payload to equal the job's payload when it runs
// alone.  A batch of either kind must derive some members and simulate
// others (the evicting tomcatv ILR EXP runs), and a derived delivery must count in
// tlr_jobs_derived_total, not as a run or in the latency histogram.
func TestFamilyEquivalence(t *testing.T) {
	recs := familyRecordings(t)
	var live, traced []Job
	for _, name := range []string{"gcc", "tomcatv"} {
		live = append(live, familyJobs(ProgSource("live-"+name, program(t, name)), passSkips, passBudget)...)
		traced = append(traced, familyJobs(TraceSource("trace-"+name, recs[name], 0), passSkips, passBudget)...)
	}
	jobs := append(append([]Job(nil), live...), traced...)
	want := reference(t, jobs)

	rng := rand.New(rand.NewSource(7))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("workers", workers), func(t *testing.T) {
			for _, part := range [][]Job{live, traced} {
				s := New(Options{Workers: workers})
				defer s.Close()
				res, err := s.Submit(context.Background(), part, 0).Wait()
				if err != nil {
					t.Fatal(err)
				}
				check(t, "one batch", part, res, want)
				st := s.Stats()
				derived := derivedRTM(s)
				if derived == 0 || st.Ran+derived != uint64(len(part)) {
					t.Errorf("ran %d and derived %d of %d jobs: want some derived and every job once", st.Ran, derived, len(part))
				}
				if n, _ := s.Metrics().Value("tlr_job_duration_seconds", "rtm"); uint64(n) != st.Ran-studies(part) {
					t.Errorf("rtm latency observations %v, want the %d simulated RTM jobs", n, st.Ran-studies(part))
				}
			}

			s2 := New(Options{Workers: workers})
			defer s2.Close()
			mixed := append([]Job(nil), jobs...)
			mixed = append(mixed, jobs[2], jobs[3], jobs[len(jobs)-2])
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			res, err := s2.Submit(context.Background(), mixed, 2).Wait()
			if err != nil {
				t.Fatal(err)
			}
			check(t, "shuffled with duplicates", mixed, res, want)
		})
	}
}

// studies counts the study jobs of jobs.
func studies(jobs []Job) uint64 {
	n := uint64(0)
	for _, j := range jobs {
		if j.Kind == "study" {
			n++
		}
	}
	return n
}

// familyPair returns a derivable (gcc ILR NE) 32K leader and its 256K
// follower over src.
func familyPair(src Source, budget uint64) (leader, follower Job) {
	job := func(g rtm.Geometry) Job {
		return RTMJob(fmt.Sprintf("%d", g.Sets), src, RTMParams{
			Config: rtm.Config{Geometry: g, Heuristic: rtm.ILRNE}, Skip: passSkips[0], Budget: budget})
	}
	return job(rtm.Geometry32K), job(rtm.Geometry256K)
}

// TestFamilyMemberCached checks that a cached member leaves its family:
// a cached leader lets its follower simulate, a cached follower lets its
// leader run alone, and neither derives anything.
func TestFamilyMemberCached(t *testing.T) {
	for _, src := range []Source{
		ProgSource("live-gcc", program(t, "gcc")),
		TraceSource("trace-gcc", familyRecordings(t)["gcc"], 0),
	} {
		leader, follower := familyPair(src, passBudget)
		want := reference(t, []Job{leader, follower})
		for _, first := range []Job{leader, follower} {
			s := New(Options{Workers: 2})
			if _, err := s.Submit(context.Background(), []Job{first}, 0).Wait(); err != nil {
				t.Fatal(err)
			}
			res, err := s.Submit(context.Background(), []Job{leader, follower}, 0).Wait()
			if err != nil {
				t.Fatal(err)
			}
			check(t, "one member cached", []Job{leader, follower}, res, want)
			for i, j := range []Job{leader, follower} {
				if res[i].Cached != (j.Key == first.Key) {
					t.Errorf("%s with %s cached first: %s cached %v", src.Key, first.ID, j.ID, res[i].Cached)
				}
			}
			if st := s.Stats(); st.Ran != 2 || derivedRTM(s) != 0 {
				t.Errorf("%s with %s cached first: ran %d, derived %d; want 2 runs, none derived", src.Key, first.ID, st.Ran, derivedRTM(s))
			}
			s.Close()
		}
	}
}

// TestFamilyEvictingLeader checks that a leader that evicted a PC slot
// (tomcatv's ILR EXP run evicts IRB slots) answers nothing: its follower
// simulates itself, live and from a recording.
func TestFamilyEvictingLeader(t *testing.T) {
	for _, src := range []Source{
		ProgSource("live-tomcatv", program(t, "tomcatv")),
		TraceSource("trace-tomcatv", familyRecordings(t)["tomcatv"], 0),
	} {
		var jobs []Job
		for _, g := range []rtm.Geometry{rtm.Geometry32K, rtm.Geometry256K} {
			jobs = append(jobs, RTMJob(fmt.Sprint(g.Sets), src, RTMParams{
				Config: rtm.Config{Geometry: g, Heuristic: rtm.ILREXP}, Skip: passSkips[0], Budget: passBudget}))
		}
		want := reference(t, jobs)
		s := New(Options{Workers: 2})
		res, err := s.Submit(context.Background(), jobs, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		check(t, "evicting leader", jobs, res, want)
		if st := s.Stats(); st.Ran != 2 || derivedRTM(s) != 0 {
			t.Errorf("%s: ran %d, derived %d; want both simulated", src.Key, st.Ran, derivedRTM(s))
		}
		s.Close()
	}
}

// TestFamilyLeaderCancelled cancels the only batch that wants a family's
// leader while the leader runs; the follower, which another batch still
// wants, must then simulate itself and finish with the right payload.
func TestFamilyLeaderCancelled(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		tr := familyRecordings(t)["gcc"]
		started, release := make(chan struct{}), make(chan struct{})
		once := new(sync.Once)
		gated := StreamSource("trace-gcc", 0, func() (trace.Stream, error) {
			return gatedStream{Stream: tr.Cursor(), once: once, started: started, release: release}, nil
		})
		leader, follower := familyPair(gated, passBudget)
		_, plain := familyPair(TraceSource("trace-gcc", tr, 0), passBudget)
		want := reference(t, []Job{plain})
		leaderCancelled(t, leader, follower, want, func() { <-started }, func() { close(release) })
	})
	t.Run("live", func(t *testing.T) {
		// Long enough that the leader is still simulating when its batch
		// is cancelled, a few milliseconds after it starts.
		const budget = 2_000_000
		leader, follower := familyPair(ProgSource("live-gcc", program(t, "gcc")), budget)
		want := reference(t, []Job{follower})
		leaderCancelled(t, leader, follower, want, func() {}, func() {})
	})
}

// leaderCancelled submits leader and follower in batch A, waits for
// started, has batch B join the follower's run, cancels A and calls
// release: the leader must end cancelled and B's follower must equal
// want.
func leaderCancelled(t *testing.T, leader, follower Job, want map[string]string, started, release func()) {
	t.Helper()
	s := New(Options{Workers: 2})
	defer s.Close()
	ctxA, cancelA := context.WithCancel(context.Background())
	a := s.Submit(ctxA, []Job{leader, follower}, 0)
	started()
	b := s.Submit(context.Background(), []Job{follower}, 0)
	waitFor(t, func() bool { return s.Stats().Coalesced == 1 })
	cancelA()
	// The flight drops A's interest asynchronously: release the leader
	// only once its run has seen the cancellation.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		f := s.inflight[leader.Key]
		return f == nil || f.ctx.Err() != nil
	})
	release()
	resA, _ := a.Wait()
	if !errors.Is(resA[0].Err, context.Canceled) {
		t.Errorf("cancelled leader: err %v, want context.Canceled", resA[0].Err)
	}
	resB, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadOf(t, resB[0]); got != want[follower.Key] {
		t.Errorf("follower of a cancelled leader: got %s, want %s", got, want[follower.Key])
	}
	if derivedRTM(s) != 0 {
		t.Errorf("derived %d results from a cancelled leader", derivedRTM(s))
	}
}
