package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// scrapeRun runs a scraper against handler for a run of the given
// length and returns its report.
func scrapeRun(t *testing.T, run time.Duration, handler http.HandlerFunc) *ScrapeReport {
	t.Helper()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	s := newScraper(Config{Server: srv.URL, Client: srv.Client(), ScrapeInterval: run / 4})
	ctx, cancel := context.WithTimeout(context.Background(), run)
	defer cancel()
	s.start(ctx)
	<-ctx.Done()
	s.stop()
	return s.report()
}

// TestScrapeStalledPastRunDeadline: a /metrics scrape still in flight
// when the run's own deadline passes is cut short by the run, not failed
// by the server, so it is no scrape error; the final un-deadlined scrape
// still samples.
func TestScrapeStalledPastRunDeadline(t *testing.T) {
	const run = 200 * time.Millisecond
	var calls atomic.Int32
	rep := scrapeRun(t, run, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			// Every scrape after the first stalls past the run deadline.
			select {
			case <-time.After(run + 100*time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		fmt.Fprintln(w, "go_goroutines 3")
	})
	if rep.ScrapeErrors != 0 {
		t.Errorf("%d scrape errors from scrapes the run's deadline cut short, want 0", rep.ScrapeErrors)
	}
	if rep.Scrapes != 2 || rep.GoroutinesMax != 3 {
		t.Errorf("%d scrapes (goroutines max %v), want the first and the final one", rep.Scrapes, rep.GoroutinesMax)
	}
}

// TestScrapeServerErrorCounts: a scrape the server fails still counts,
// deadline or not.
func TestScrapeServerErrorCounts(t *testing.T) {
	var calls atomic.Int32
	rep := scrapeRun(t, 200*time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "go_goroutines 3")
	})
	if rep.ScrapeErrors == 0 || rep.Scrapes != 1 {
		t.Errorf("%d scrapes, %d scrape errors; want 1 and every 500 counted", rep.Scrapes, rep.ScrapeErrors)
	}
}
