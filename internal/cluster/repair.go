package cluster

// Anti-entropy repair: the write path replicates asynchronously and
// can fail silently (peer down during upload, queue overflow, node
// restarted with a hint file lost).  The repair loop closes every such
// hole from first principles: periodically scan the digests this node
// holds, ask each digest's other owners whether they hold it, and
// backfill the ones that don't.  One cycle after every owner is back
// up, the cluster is at full replication factor again — regardless of
// which writes were lost or why.

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

func (f *Fabric) repairLoop(every time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			rep := f.RepairCycle()
			if rep.Backfilled > 0 || rep.Failed > 0 {
				f.logf("cluster: repair: %d digests, %d checks, %d backfilled, %d failed",
					rep.Digests, rep.Checked, rep.Backfilled, rep.Failed)
			}
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
				// The peer has it; any hint owed is satisfied.
				f.dropHint(p, digest)
				continue
			}
			if err := f.replicateTo(digest, p); err != nil {
				rep.Failed++
				f.bump(func(s *Stats) { s.RepairFailures++ })
				f.addHint(p, digest)
				f.logf("cluster: repair backfill %s to %s: %v", digest, p, err)
				continue
			}
			rep.Backfilled++
			f.bump(func(s *Stats) { s.RepairBackfills++ })
			f.dropHint(p, digest)
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
