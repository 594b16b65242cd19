package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/tracereuse/tlr/internal/metrics"
)

// scraper samples the server's /metrics exposition on a fixed interval
// for the duration of a load run, folding each scrape into running
// ceilings.  It reuses the package's own exposition parser — the same
// code the server's tests trust — so a format drift breaks loudly.
type scraper struct {
	cfg    Config
	cancel func()
	wg     sync.WaitGroup

	mu  sync.Mutex
	rep ScrapeReport
}

func newScraper(cfg Config) *scraper { return &scraper{cfg: cfg} }

func (s *scraper) start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.count(s.scrapeOnce(ctx)) // one sample before traffic ramps
		tick := time.NewTicker(s.cfg.ScrapeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				// Final sample with the run's deadline gone, so the
				// last heap reading reflects the loaded steady state.
				s.count(s.scrapeOnce(context.Background()))
				return
			case <-tick.C:
				err := s.scrapeOnce(ctx)
				if err != nil && ctx.Err() != nil && !errors.Is(err, errStatus) {
					// Cut short because the run itself ended, not a
					// scrape error: the final sample above follows.
					continue
				}
				s.count(err)
			}
		}
	}()
}

// errStatus reports a scrape the server answered with a status other
// than 200.
var errStatus = errors.New("loadgen: /metrics status")

// scrapeOnce samples /metrics once, folding the sample into the report.
func (s *scraper) scrapeOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.Server+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w %d", errStatus, resp.StatusCode)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		return err
	}
	value := func(name string) (float64, bool) {
		found := metrics.Find(samples, name)
		if len(found) != 1 {
			return 0, false
		}
		return found[0].Value, true
	}
	var fiveXX float64
	for _, sm := range metrics.Find(samples, "tlr_http_requests_total", "code", "5xx") {
		fiveXX += sm.Value
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.Scrapes++
	if g, ok := value("go_goroutines"); ok && g > s.rep.GoroutinesMax {
		s.rep.GoroutinesMax = g
	}
	if h, ok := value("go_memstats_heap_inuse_bytes"); ok {
		if s.rep.HeapInuseFirstBytes == 0 {
			s.rep.HeapInuseFirstBytes = h
		}
		s.rep.HeapInuseLastBytes = h
		if h > s.rep.HeapInuseMaxBytes {
			s.rep.HeapInuseMaxBytes = h
		}
	}
	if fiveXX > s.rep.HTTP5xx {
		s.rep.HTTP5xx = fiveXX
	}
	return nil
}

// count records a failed scrape as a scrape error.
func (s *scraper) count(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.rep.ScrapeErrors++
	s.mu.Unlock()
}

// stop ends the sampling loop (after one final un-deadlined scrape)
// and waits for it.
func (s *scraper) stop() {
	s.cancel()
	s.wg.Wait()
}

// report finalises and returns the scrape summary; call after stop.
func (s *scraper) report() *ScrapeReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.rep
	return &rep
}
