package tlr

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunBatchAllFourKinds submits one request of every kind in a single
// batch and checks each result carries exactly its kind's payload.
func TestRunBatchAllFourKinds(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 4})
	defer b.Close()
	reqs := []Request{
		{ID: "study", Workload: "li", Study: &StudyConfig{Budget: 8_000, Window: 256}},
		{ID: "rtm", Workload: "li", RTM: &RTMConfig{Geometry: Geometry512, Heuristic: ILREXP},
			Skip: 500, Budget: 8_000},
		{ID: "pipe", Workload: "li", Pipeline: &PipelineConfig{}, Budget: 8_000},
		{ID: "vp", Workload: "li", VP: &VPConfig{Window: 256}, Budget: 8_000},
	}
	res, err := b.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{KindStudy, KindRTM, KindPipeline, KindVP}
	for i, r := range res {
		if r.Kind != wantKinds[i] {
			t.Errorf("result %d: kind %q, want %q", i, r.Kind, wantKinds[i])
		}
		set := 0
		for _, on := range []bool{r.Study != nil, r.RTM != nil, r.Pipeline != nil, r.VP != nil} {
			if on {
				set++
			}
		}
		if set != 1 {
			t.Errorf("result %d: %d payloads set, want exactly 1", i, set)
		}
	}
	if res[0].Study.ILR.Instructions != 8_000 {
		t.Errorf("study instructions = %d", res[0].Study.ILR.Instructions)
	}
	if res[1].RTM.Total() < 8_000 {
		t.Errorf("rtm total = %d", res[1].RTM.Total())
	}
	if res[2].Pipeline.Retired < 8_000 || res[2].Pipeline.IPC() <= 0 {
		t.Errorf("pipeline result %+v", res[2].Pipeline)
	}
	if res[3].VP.Instructions != 8_000 {
		t.Errorf("vp instructions = %d", res[3].VP.Instructions)
	}
}

// TestPipelineAndVPCacheAndCoalesce: the two kinds new to the batch
// service hit the result cache across batches and coalesce identical
// in-flight requests within one.
func TestPipelineAndVPCacheAndCoalesce(t *testing.T) {
	for _, kind := range []struct {
		name string
		req  Request
	}{
		{"pipeline", Request{Workload: "li",
			Pipeline: &PipelineConfig{RTM: &RTMConfig{Geometry: Geometry512}}, Budget: 8_000}},
		{"vp", Request{Workload: "li", VP: &VPConfig{Window: 256}, Budget: 8_000}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			b := NewBatcher(BatchOptions{Workers: 4})
			defer b.Close()
			// Two identical requests in one batch: one simulation, the
			// other folded onto it (coalesced or answered from cache).
			res, err := b.RunBatch(context.Background(), []Request{kind.req, kind.req})
			if err != nil {
				t.Fatal(err)
			}
			if !res[0].Cached && !res[1].Cached {
				t.Errorf("identical in-flight requests should share one simulation: %+v", b.Stats())
			}
			st := b.Stats()
			if st.Ran != 1 {
				t.Errorf("Ran = %d, want 1", st.Ran)
			}
			if st.CacheHits+st.Coalesced != 1 {
				t.Errorf("CacheHits+Coalesced = %d, want 1", st.CacheHits+st.Coalesced)
			}
			// A later identical batch is answered entirely from cache.
			res2, err := b.RunBatch(context.Background(), []Request{kind.req})
			if err != nil {
				t.Fatal(err)
			}
			if !res2[0].Cached {
				t.Error("second batch should hit the result cache")
			}
			if b.Stats().Ran != 1 {
				t.Errorf("second batch re-simulated: %+v", b.Stats())
			}
			switch kind.name {
			case "pipeline":
				if res[0].Pipeline.IPC() != res2[0].Pipeline.IPC() {
					t.Error("cached pipeline result differs")
				}
			case "vp":
				if res[0].VP.Speedup != res2[0].VP.Speedup {
					t.Error("cached vp result differs")
				}
			}
		})
	}
}

// TestRunBatchJoinsAllErrors: a batch with several failing requests
// reports every failure in the returned error, not just the first.
func TestRunBatchJoinsAllErrors(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 2})
	defer b.Close()
	_, err := b.RunBatch(context.Background(), []Request{
		{Workload: "nope1", VP: &VPConfig{}, Budget: 100},
		{Workload: "li", VP: &VPConfig{}, Budget: 100},
		{Workload: "nope2", VP: &VPConfig{}, Budget: 100},
	})
	if err == nil {
		t.Fatal("expected validation errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nope1") || !strings.Contains(msg, "nope2") {
		t.Errorf("error should name both bad requests: %v", msg)
	}
}

// TestRequestValidation: malformed requests fail the batch before any
// simulation starts.
func TestRequestValidation(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 1})
	defer b.Close()
	bad := []Request{
		{VP: &VPConfig{}, Budget: 100}, // no program
		{Workload: "compress"},         // no config
		{Workload: "compress", Source: "x", VP: &VPConfig{}, Budget: 100},                                            // two programs
		{Workload: "compress", VP: &VPConfig{}, RTM: &RTMConfig{}, Budget: 100},                                      // two configs
		{Workload: "compress", VP: &VPConfig{}},                                                                      // no budget
		{Workload: "compress", Pipeline: &PipelineConfig{}},                                                          // no budget
		{Workload: "compress", Pipeline: &PipelineConfig{RTM: &RTMConfig{Geometry: Geometry{Sets: 3}}}, Budget: 100}, // bad geometry
		{Workload: "compress", RTM: &RTMConfig{Geometry: Geometry512}},                                               // no budget
		{Workload: "compress", Study: &StudyConfig{Budget: 100}, Budget: 50},                                         // both budgets
		{Workload: "compress", Study: &StudyConfig{Skip: 500}, Budget: 50},                                           // Study.Skip would be silently lost
		{Workload: "nope", VP: &VPConfig{}, Budget: 100},                                                             // unknown workload
	}
	for i, req := range bad {
		if _, err := b.RunBatch(context.Background(), []Request{req}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if st := b.Stats(); st.Ran != 0 {
		t.Errorf("validation failures must not simulate: %+v", st)
	}
}

// TestStreamBatchCancellation cancels a context mid-batch and checks the
// three contracted behaviours: the stream still delivers exactly one
// result per request and closes promptly, requests that never reached a
// worker are marked with ctx.Err(), and no goroutines are leaked
// (bracketed with runtime.NumGoroutine).
func TestStreamBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	b := NewBatcher(BatchOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	// One worker, several long simulations: without cancellation this
	// batch takes minutes; the budget is deliberately outsized so a
	// cancellation regression fails the test by timeout.
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{
			ID: string(rune('a' + i)), Workload: "li",
			RTM:    &RTMConfig{Geometry: Geometry4K, Heuristic: ILREXP},
			Budget: 500_000_000,
		}
	}
	stream, err := b.StreamBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the first simulation start
	start := time.Now()
	cancel()

	got := 0
	cancelled := 0
	for r := range stream {
		got++
		if r.Err == nil {
			t.Errorf("request %s finished despite cancellation", r.ID)
		} else if errors.Is(r.Err, context.Canceled) {
			cancelled++
		} else {
			t.Errorf("request %s: unexpected error %v", r.ID, r.Err)
		}
	}
	elapsed := time.Since(start)
	if got != len(reqs) {
		t.Errorf("received %d results, want %d", got, len(reqs))
	}
	if cancelled != len(reqs) {
		t.Errorf("%d results marked with ctx.Err(), want %d", cancelled, len(reqs))
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if st := b.Stats(); st.Ran != 0 {
		t.Errorf("cancelled batch counted %d completed simulations", st.Ran)
	}
	b.Close()

	// Goroutine bracketing: everything the batch and batcher spawned
	// must wind down.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchCancelStopsRunningSimulation: Batch-level cancellation (via
// Run with a cancelled context) stops a single in-flight simulation
// mid-run rather than waiting for its budget.
func TestRunHonoursContextMidSimulation(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 1})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() {
		res, _ := b.Run(ctx, Request{
			Workload: "li", Study: &StudyConfig{Budget: 2_000_000_000},
		})
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Run did not return promptly")
	}
}
