package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// Scale of the pass tests: a recording of passRecords records, cells
// measuring passBudget of them after each of passSkips.
const (
	passRecords = 20_000
	passBudget  = 5_000
)

var passSkips = []uint64{500, 12_000}

var (
	passTraceOnce sync.Once
	passTrace     *tracefile.Trace
)

// recording returns gcc's first passRecords records, recorded once.
func recording(t *testing.T) *tracefile.Trace {
	t.Helper()
	passTraceOnce.Do(func() {
		w, _ := workload.ByName("gcc")
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		rec := tracefile.NewRecorder()
		if _, err := cpu.New(prog).RunContext(context.Background(), passRecords, rec.Write); err != nil {
			t.Fatal(err)
		}
		passTrace = rec.Trace()
	})
	return passTrace
}

// passJobs returns, for each skip, the trace-driven cells over src: three
// study windows, a strict capped study with ILP windows, three RTMs, VP
// and analysis.  The cells of one skip share a pass.
func passJobs(src Source) []Job {
	var jobs []Job
	for _, skip := range passSkips {
		id := func(s string) string { return fmt.Sprintf("%s@%d", s, skip) }
		for _, w := range []int{64, 256, 1024} {
			jobs = append(jobs, StudyJob(id(fmt.Sprint("study", w)), src, StudyParams{Budget: passBudget, Skip: skip, Window: w}))
		}
		jobs = append(jobs,
			StudyJob(id("strict"), src, StudyParams{Budget: passBudget, Skip: skip, Window: 256,
				TLRVariants: []core.Latency{core.ConstLatency(1), core.PropLatency(0.25)},
				Strict:      true, MaxRunLen: 16, ILPWindows: []int{16, 256, 0}}),
			RTMJob(id("rtm-exp-4k"), src, RTMParams{Config: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.ILREXP}, Skip: skip, Budget: passBudget}),
			RTMJob(id("rtm-ne-512"), src, RTMParams{Config: rtm.Config{Geometry: rtm.Geometry512, Heuristic: rtm.ILRNE}, Skip: skip, Budget: passBudget}),
			RTMJob(id("rtm-i4-4k"), src, RTMParams{Config: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.IEXP, N: 4}, Skip: skip, Budget: passBudget}),
			VPJob(id("vp"), src, VPParams{Window: 256, Skip: skip, Budget: passBudget}),
			AnalyzeJob(id("analyze"), src, AnalyzeParams{Skip: skip, Budget: passBudget}),
		)
	}
	return jobs
}

// payloadOf encodes a job result's value for comparison.
func payloadOf(t *testing.T, r Result) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", r.ID, r.Err)
	}
	b, err := json.Marshal(r.Value)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reference runs every job alone, one batch each, on its own service:
// the payload each job must produce however it is grouped, by key.
func reference(t *testing.T, jobs []Job) map[string]string {
	t.Helper()
	s := New(Options{Workers: 1})
	defer s.Close()
	want := make(map[string]string)
	for _, j := range jobs {
		res, err := s.Submit(context.Background(), []Job{j}, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[j.Key] = payloadOf(t, res[0])
	}
	return want
}

// check compares every result of a batch of jobs with the reference.
func check(t *testing.T, what string, jobs []Job, res []Result, want map[string]string) {
	t.Helper()
	for i, r := range res {
		if got := payloadOf(t, r); got != want[jobs[i].Key] {
			t.Errorf("%s: %s differs from the job run alone:\n got %s\nwant %s", what, r.ID, got, want[jobs[i].Key])
		}
	}
}

// TestPassEquivalence runs the cells of two passes every way a batch can
// group them — alone, all in one batch, shuffled with duplicates, with
// one cell cached and one coalescing onto an identical in-flight run —
// at 1, 2 and 4 workers, and requires every payload to equal the job's
// payload when it runs alone.  The program-backed twin of each cell must
// agree too: replay is equivalent to execution.
func TestPassEquivalence(t *testing.T) {
	tr := recording(t)
	src := TraceSource("gcc-pass", tr, 0)
	jobs := passJobs(src)
	want := reference(t, jobs)

	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	live := passJobs(ProgSource("gcc-pass", prog))
	ls := New(Options{Workers: 2})
	defer ls.Close()
	res, err := ls.Submit(context.Background(), live, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	check(t, "live", live, res, want)

	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("workers", workers), func(t *testing.T) {
			s := New(Options{Workers: workers})
			defer s.Close()
			res, err := s.Submit(context.Background(), jobs, 0).Wait()
			if err != nil {
				t.Fatal(err)
			}
			check(t, "one batch", jobs, res, want)

			// Shuffled, with duplicates, on a fresh service.
			s2 := New(Options{Workers: workers})
			defer s2.Close()
			mixed := append([]Job(nil), jobs...)
			mixed = append(mixed, jobs[0], jobs[4], jobs[len(jobs)-1])
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			res, err = s2.Submit(context.Background(), mixed, 2).Wait()
			if err != nil {
				t.Fatal(err)
			}
			check(t, "shuffled with duplicates", mixed, res, want)

			// One member cached, one coalescing onto a run in flight.
			s3 := New(Options{Workers: workers})
			defer s3.Close()
			cached, coalesced := jobs[1], jobs[5]
			if _, err := s3.Submit(context.Background(), []Job{cached}, 0).Wait(); err != nil {
				t.Fatal(err)
			}
			started, release := make(chan struct{}), make(chan struct{})
			blocker := coalesced
			blocker.lane = nil // runs alone, holding the key in flight
			blocker.Run = func(ctx context.Context) (any, error) {
				close(started)
				<-release
				return coalesced.Run(ctx)
			}
			held := s3.Submit(context.Background(), []Job{blocker}, 0)
			<-started
			b := s3.Submit(context.Background(), jobs, 0)
			if workers > 1 {
				waitFor(t, func() bool { return s3.Stats().Coalesced == 1 })
			}
			close(release)
			res, err = b.Wait()
			if err != nil {
				t.Fatal(err)
			}
			check(t, "cached and coalesced", jobs, res, want)
			if !res[1].Cached {
				t.Errorf("%s was not answered from the cache", res[1].ID)
			}
			if workers > 1 && !res[5].Cached {
				t.Errorf("%s did not coalesce onto the identical run in flight", res[5].ID)
			}
			if _, err := held.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

// gatedStream holds its first batch until release is closed, signalling
// started once it is asked for it.
type gatedStream struct {
	trace.Stream
	once             *sync.Once
	started, release chan struct{}
}

func (g gatedStream) NextBatch() ([]trace.Exec, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.Stream.NextBatch()
}

// TestPassMemberCancelAndFailure checks that pass members end alone: a
// member whose only interested batch is cancelled ends with the
// cancellation error, a member another batch still wants runs on, and a
// member that cannot run from a trace (RTM Verify) fails without
// touching the others.
func TestPassMemberCancelAndFailure(t *testing.T) {
	tr := recording(t)
	started, release := make(chan struct{}), make(chan struct{})
	once := new(sync.Once)
	gated := StreamSource("gcc-pass", 0, func() (trace.Stream, error) {
		return gatedStream{Stream: tr.Cursor(), once: once, started: started, release: release}, nil
	})
	jobs := passJobs(gated)[:len(passJobs(gated))/2] // the first skip's pass
	want := reference(t, passJobs(TraceSource("gcc-pass", tr, 0)))

	verify := RTMJob("verify", gated, RTMParams{Config: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.ILREXP, Verify: true},
		Skip: passSkips[0], Budget: passBudget})
	s := New(Options{Workers: 2})
	defer s.Close()
	ctxA, cancelA := context.WithCancel(context.Background())
	a := s.Submit(ctxA, append(append([]Job(nil), jobs...), verify), 0)
	<-started
	keep := jobs[0]
	b := s.Submit(context.Background(), []Job{keep}, 0)
	waitFor(t, func() bool { return s.Stats().Coalesced == 1 })
	cancelA()
	// The flights drop A's interest asynchronously: release the stream
	// only once every cancelled job's run has seen the cancellation.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range jobs[1:] {
			if f := s.inflight[j.Key]; f != nil && f.ctx.Err() == nil {
				return false
			}
		}
		return true
	})
	close(release)

	resA, _ := a.Wait()
	for i, r := range resA[:len(jobs)] {
		switch {
		case i == 0:
			// Batch B still wants it: the run went on.
			if got := payloadOf(t, r); got != want[keep.Key] {
				t.Errorf("%s: got %s, want %s", r.ID, got, want[keep.Key])
			}
		case !errors.Is(r.Err, context.Canceled):
			t.Errorf("%s: err %v, want context.Canceled", r.ID, r.Err)
		}
	}
	if r := resA[len(jobs)]; r.Err == nil || !strings.Contains(r.Err.Error(), "Verify") {
		t.Errorf("RTM Verify on a trace: err %v, want the replay's Verify error", r.Err)
	}
	resB, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadOf(t, resB[0]); got != want[keep.Key] || !resB[0].Cached {
		t.Errorf("coalesced %s: cached %v, got %s, want %s", keep.ID, resB[0].Cached, got, want[keep.Key])
	}

	// The failing member fails alone in a batch nobody cancels.
	res, _ := s.Submit(context.Background(), append([]Job{verify}, passJobs(TraceSource("gcc-pass", tr, 0))...), 0).Wait()
	if res[0].Err == nil {
		t.Error("RTM Verify on a trace ran")
	}
	check(t, "beside a failing member", passJobs(TraceSource("gcc-pass", tr, 0)), res[1:], want)
}
