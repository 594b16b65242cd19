package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopStallShowsInTail drives a server that answers at once
// except for a stall of known length, open loop at 200 requests/s.
// Every request the stall delays must count the delay from the moment
// it was due, so the p95 carries it; and the ticks that fell due while
// the backlog of unsent requests was full (the stall outlasts the
// backlog's second or so of ticks) must be counted.  A generator that
// times requests from when a worker sends them sees only the two
// requests in flight during the stall.
func TestOpenLoopStallShowsInTail(t *testing.T) {
	const (
		stallAfter = 200 * time.Millisecond
		stall      = 1400 * time.Millisecond
	)
	var once sync.Once
	var stallFrom, stallTo time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			fmt.Fprintln(w, "go_goroutines 3")
			return
		case "/v1/run":
			once.Do(func() {
				stallFrom = time.Now().Add(stallAfter)
				stallTo = stallFrom.Add(stall)
			})
			if now := time.Now(); now.After(stallFrom) && now.Before(stallTo) {
				select {
				case <-time.After(time.Until(stallTo)):
				case <-r.Context().Done():
					return
				}
			}
		}
		fmt.Fprintln(w, "{}")
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Server:         srv.URL,
		Duration:       stallAfter + stall + 600*time.Millisecond,
		Workers:        2,
		Rate:           200,
		Mix:            Mix{Run: 1},
		Distinct:       1,
		Budget:         1000,
		ScrapeInterval: time.Second,
		Client:         srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := rep.Kinds["run"]
	t.Logf("%d requests, p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, %d ticks dropped",
		run.Requests, run.P50Ms, run.P95Ms, run.P99Ms, rep.TicksDropped)
	if min := float64(stall/time.Millisecond) / 2; run.P95Ms < min {
		t.Errorf("p95 %.1f ms hides a %v stall: want at least %.0f ms", run.P95Ms, stall, min)
	}
	if rep.TicksDropped == 0 {
		t.Error("no ticks counted as dropped, though the stall outlasted the backlog")
	}
}
