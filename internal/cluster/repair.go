package cluster

// Anti-entropy repair: the write path replicates asynchronously and
// can fail silently (peer down during upload, queue overflow, node
// restarted with deliveries still queued).  The repair loop is the one
// path that closes every such hole, from first principles: scan the
// digests this node holds, ask each digest's other owners whether they
// hold it, and backfill the ones that don't.  It runs every
// RepairEvery and once more whenever a probe sees an unhealthy peer
// answering again, so one cycle after every owner is back up the
// cluster is at full replication factor — regardless of which writes
// were lost or why.

import (
	"context"
	"net/http"
	"time"
)

// RepairReport summarizes one repair cycle.
type RepairReport struct {
	// Digests is how many locally held digests were scanned.
	Digests int `json:"digests"`
	// Checked is how many (digest, owner) existence checks ran.
	Checked int `json:"checked"`
	// Backfilled is how many missing copies were delivered.
	Backfilled int `json:"backfilled"`
	// Failed is how many checks or deliveries failed (peer down or
	// breaker open); they are retried on the next cycle.
	Failed int `json:"failed"`
}

// repairLoop runs a cycle every interval (never, when every <= 0) and
// whenever probe recovery signals repairNow.
func (f *Fabric) repairLoop(every time.Duration) {
	defer f.wg.Done()
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-tick:
		case <-f.repairNow:
		}
		rep := f.RepairCycle()
		if rep.Backfilled > 0 || rep.Failed > 0 {
			f.logf("cluster: repair: %d digests, %d checks, %d backfilled, %d failed",
				rep.Digests, rep.Checked, rep.Backfilled, rep.Failed)
		}
	}
}

// RepairCycle runs one full anti-entropy pass synchronously and
// returns what it found.  Cycles are serialized: a second caller
// blocks until the first finishes.  Peers behind an open breaker are
// counted as failures and left for a later cycle rather than probed
// through the breaker.
func (f *Fabric) RepairCycle() RepairReport {
	f.repairMu.Lock()
	defer f.repairMu.Unlock()
	var rep RepairReport
	if f.listDigests == nil {
		return rep
	}
	for _, digest := range f.listDigests() {
		select {
		case <-f.ctx.Done():
			return rep
		default:
		}
		rep.Digests++
		// Check every other owner, whether or not self is one: a
		// non-owner node that accepted an upload still guarantees
		// placement by repairing the owners.
		for _, p := range f.Owners(digest) {
			if p == f.self {
				continue
			}
			rep.Checked++
			f.bump(func(s *Stats) { s.RepairChecks++ })
			held, err := f.hasTraceOn(p, digest)
			if err != nil {
				rep.Failed++
				f.bump(func(s *Stats) { s.RepairFailures++ })
				continue
			}
			if held {
				continue
			}
			if err := f.replicateTo(digest, p); err != nil {
				rep.Failed++
				f.bump(func(s *Stats) { s.RepairFailures++ })
				f.logf("cluster: repair backfill %s to %s: %v", digest, p, err)
				continue
			}
			rep.Backfilled++
			f.bump(func(s *Stats) { s.RepairBackfills++ })
		}
	}
	f.bump(func(s *Stats) { s.RepairCycles++ })
	return rep
}

// hasTraceOn asks one peer whether it holds digest, via HEAD on the
// trace download route under the status deadline.
func (f *Fabric) hasTraceOn(peer, digest string) (bool, error) {
	if !f.allow(peer) {
		f.bump(func(s *Stats) { s.BreakerShed++ })
		return false, errBreakerOpen
	}
	ctx, cancel := context.WithTimeout(f.ctx, statusTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, peer+"/v1/traces/"+digest, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(HeaderPeer, f.self)
	resp, err := f.client.Do(req)
	if err != nil {
		f.noteFailure(peer)
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		f.noteSuccess(peer)
		return true, nil
	case http.StatusNotFound:
		f.noteSuccess(peer)
		return false, nil
	default:
		f.noteFailure(peer)
		return false, errUnexpectedStatus(resp.Status)
	}
}

var errBreakerOpen = errUnexpectedStatus("breaker open")

type errUnexpectedStatus string

func (e errUnexpectedStatus) Error() string { return "cluster: has-trace check: " + string(e) }
