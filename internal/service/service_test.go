package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/workload"
)

func TestBatchWaitOrdersByIndex(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) { return i * i, nil }}
	}
	res, err := s.Submit(context.Background(), jobs, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Index != i || r.Value.(int) != i*i || r.ID != fmt.Sprint(i) {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestBatchFirstErrorByIndex(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	boom3 := errors.New("boom3")
	jobs := []Job{
		{ID: "a", Run: func(context.Context) (any, error) { return 1, nil }},
		{ID: "b", Run: func(context.Context) (any, error) { return nil, errors.New("boom1") }},
		{ID: "c", Run: func(context.Context) (any, error) { return 2, nil }},
		{ID: "d", Run: func(context.Context) (any, error) { return nil, boom3 }},
	}
	res, err := s.Submit(context.Background(), jobs, 0).Wait()
	if err == nil || !errors.Is(err, res[1].Err) {
		t.Fatalf("want first error (index 1), got %v", err)
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Errorf("Errors = %d, want 2", st.Errors)
	}
}

func TestResultCacheAcrossBatches(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	var runs atomic.Int32
	job := Job{ID: "j", Key: "k1", Run: func(context.Context) (any, error) {
		runs.Add(1)
		return "value", nil
	}}
	for i := 0; i < 3; i++ {
		res, err := s.Submit(context.Background(), []Job{job}, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Value.(string) != "value" {
			t.Fatalf("run %d: bad value %v", i, res[0].Value)
		}
		if wantCached := i > 0; res[0].Cached != wantCached {
			t.Fatalf("run %d: Cached = %v, want %v", i, res[0].Cached, wantCached)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job ran %d times, want 1", got)
	}
	if st := s.Stats(); st.CacheHits != 2 || st.Ran != 1 {
		t.Errorf("stats = %+v, want 2 cache hits over 1 run", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var runs atomic.Int32
	job := Job{Key: "flaky", Run: func(context.Context) (any, error) {
		if runs.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return 7, nil
	}}
	if _, err := s.Submit(context.Background(), []Job{job}, 0).Wait(); err == nil {
		t.Fatal("first run should fail")
	}
	res, err := s.Submit(context.Background(), []Job{job}, 0).Wait()
	if err != nil || res[0].Value.(int) != 7 {
		t.Fatalf("second run should re-execute: %v %v", res, err)
	}
}

func TestInflightCoalescing(t *testing.T) {
	s := New(Options{Workers: 8})
	defer s.Close()
	var runs atomic.Int32
	gate := make(chan struct{})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Key: "same", Run: func(context.Context) (any, error) {
			runs.Add(1)
			<-gate
			return 42, nil
		}}
	}
	b := s.Submit(context.Background(), jobs, 0)
	// Let every worker reach the key; only one may be running it.
	var ready sync.WaitGroup
	ready.Add(1)
	go func() { defer ready.Done(); close(gate) }()
	ready.Wait()
	res, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Value.(int) != 42 {
			t.Fatalf("bad value: %+v", r)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("identical in-flight jobs ran %d times, want 1", got)
	}
}

func TestMaxParallelBound(t *testing.T) {
	s := New(Options{Workers: 8})
	defer s.Close()
	var cur, peak atomic.Int32
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			defer cur.Add(-1)
			return nil, nil
		}}
	}
	if _, err := s.Submit(context.Background(), jobs, 2).Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak parallelism %d, want <= 2", p)
	}
}

func TestProgramCache(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	w, _ := workload.ByName("compress")
	src := w.Source()
	p1, err := s.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second assembly of identical source should hit the program cache")
	}
	if _, err := s.Program("not a program"); err == nil {
		t.Error("invalid source must fail")
	}
}

// TestRTMJobDeterminism runs one real Figure-9 cell cold, cold again on a
// fresh service, and warm on the first service: all three results must be
// identical, and the warm one must come from cache.
func TestRTMJobDeterminism(t *testing.T) {
	w, _ := workload.ByName("li")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	params := RTMParams{
		Config: rtm.Config{Geometry: rtm.Geometry512, Heuristic: rtm.IEXP, N: 4},
		Skip:   500,
		Budget: 20000,
	}
	job := RTMJob("cell", ProgSource(w.Name, prog), params)

	s1 := New(Options{Workers: 2})
	defer s1.Close()
	cold1, err := s1.Submit(context.Background(), []Job{job}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2})
	defer s2.Close()
	cold2, err := s2.Submit(context.Background(), []Job{job}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s1.Submit(context.Background(), []Job{job}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Error("second submission on the same service should be cached")
	}
	r1, r2, rw := cold1[0].Value.(rtm.Result), cold2[0].Value.(rtm.Result), warm[0].Value.(rtm.Result)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("cold runs differ:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(r1, rw) {
		t.Errorf("warm run differs from cold:\n%+v\n%+v", r1, rw)
	}
}

// TestRunRTMRejectsDegenerateGeometry: caller-supplied geometries (HTTP
// requests, batch API users) must surface as job errors, never panic a
// worker.
func TestRunRTMRejectsDegenerateGeometry(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	bad := []rtm.Geometry{
		{Sets: 128, PCWays: 0, TracesPerPC: 0},
		{Sets: 128, PCWays: 4, TracesPerPC: 0},
		{Sets: 63, PCWays: 4, TracesPerPC: 4},
		{Sets: 0, PCWays: 4, TracesPerPC: 4},
		{Sets: -8, PCWays: 4, TracesPerPC: 4},
	}
	for _, g := range bad {
		_, err := RTMJob("", ProgSource("", prog), RTMParams{Config: rtm.Config{Geometry: g}, Budget: 1000}).Run(context.Background())
		if err == nil {
			t.Errorf("geometry %+v: expected error", g)
		}
	}
}

// TestCloseDuringSubmit closes the service while a batch is still
// queueing: no panic, and every job still gets a result (ErrClosed for
// the undispatched ones).
func TestCloseDuringSubmit(t *testing.T) {
	s := New(Options{Workers: 1})
	gate := make(chan struct{})
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) {
			<-gate
			return 1, nil
		}}
	}
	b := s.Submit(context.Background(), jobs, 0)
	close(gate)
	s.Close()
	got := 0
	closed := 0
	for i := 0; i < b.Len(); i++ {
		r := <-b.Results()
		got++
		if errors.Is(r.Err, ErrClosed) {
			closed++
		} else if r.Err != nil {
			t.Errorf("unexpected error: %v", r.Err)
		}
	}
	if got != len(jobs) {
		t.Errorf("received %d results, want %d", got, len(jobs))
	}
	t.Logf("%d jobs ran, %d closed out", got-closed, closed)
}

// TestBatchCancelSkipsUndispatchedJobs cancels a batch mid-flight: jobs
// not yet on a worker complete with ErrCanceled, the full result count
// still arrives, and skipped jobs never run.
func TestBatchCancelSkipsUndispatchedJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var ran atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			ran.Add(1)
			<-gate
			return 1, nil
		}}
	}
	b := s.Submit(context.Background(), jobs, 0)
	<-started // first job is on the worker
	b.Cancel()
	close(gate)
	canceled := 0
	for i := 0; i < b.Len(); i++ {
		r := <-b.Results()
		if errors.Is(r.Err, ErrCanceled) {
			canceled++
		} else if r.Err != nil {
			t.Errorf("unexpected error: %v", r.Err)
		}
	}
	if canceled == 0 {
		t.Error("expected some jobs to be canceled")
	}
	if int(ran.Load())+canceled != len(jobs) {
		t.Errorf("ran %d + canceled %d != %d jobs", ran.Load(), canceled, len(jobs))
	}
	if st := s.Stats(); st.Ran != uint64(ran.Load()) {
		t.Errorf("Stats.Ran = %d, want %d (canceled jobs must not count)", st.Ran, ran.Load())
	}
}

// TestCoalescedFlightSurvivesLeaderCancel: a keyed run shared by two
// batches must not die with the first batch's context — the flight only
// stops when every interested batch has been cancelled.
func TestCoalescedFlightSurvivesLeaderCancel(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	job := Job{ID: "x", Key: "shared", Run: func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return 42, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}

	ctxA, cancelA := context.WithCancel(context.Background())
	a := s.Submit(ctxA, []Job{job}, 0)
	<-started // A is the flight leader, mid-run
	b := s.Submit(context.Background(), []Job{job}, 0)
	// Wait until B has coalesced onto A's flight before cancelling A.
	for {
		if st := s.Stats(); st.Coalesced == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelA()
	time.Sleep(20 * time.Millisecond) // give a (buggy) cancellation time to land
	close(release)

	ra := <-a.Results()
	rb := <-b.Results()
	if rb.Err != nil || rb.Value.(int) != 42 {
		t.Errorf("B's coalesced result died with A's context: %+v", rb)
	}
	if !rb.Cached {
		t.Errorf("B should have coalesced onto A's run: %+v", rb)
	}
	// A's own result completed too (the run kept going for B's sake).
	if ra.Err != nil || ra.Value.(int) != 42 {
		t.Errorf("leader result: %+v", ra)
	}
}

// TestSoleInterestFlightStopsOnCancel: when only one batch is
// interested, cancelling it still stops the keyed run mid-flight.
func TestSoleInterestFlightStopsOnCancel(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	started := make(chan struct{})
	job := Job{ID: "x", Key: "solo", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	ctx, cancel := context.WithCancel(context.Background())
	b := s.Submit(ctx, []Job{job}, 0)
	<-started
	cancel()
	select {
	case r := <-b.Results():
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sole-interest flight did not stop")
	}
}
