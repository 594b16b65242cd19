package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/cluster"
)

// postRepair runs one synchronous repair cycle on a node via the
// operator endpoint and decodes the report.
func postRepair(t *testing.T, url string) cluster.RepairReport {
	t.Helper()
	resp, err := http.Post(url+"/v1/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair on %s: status %d", url, resp.StatusCode)
	}
	var rep cluster.RepairReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRepairConvergenceAfterNodeOutage: traces uploaded while one of
// their owners is dead must reach that owner after it restarts — via
// anti-entropy repair on the surviving owners, not late replication
// (retries are exhausted and drained before the restart).  Every
// backfilled copy must replay byte-identically to live execution: the
// receiving node re-validates and re-digests the stream before
// trusting it.
func TestRepairConvergenceAfterNodeOutage(t *testing.T) {
	nodes := startCluster(t, 3, 2, func(i int, cc *cluster.Config, opt *tlr.BatchOptions) {
		cc.Retries = 1 // one failed delivery, then the digest is repair's problem
		cc.BreakerCooldown = time.Millisecond
	})
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	byURL := map[string]*cnode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	dead := nodes[2]
	want := liveStudy(t, "li")

	// Record distinct traces (budget varies the stream, hence the
	// digest) until the soon-to-die node owns two of them.
	type victim struct {
		rec       *tlr.Trace
		digest    string
		liveOwner string
	}
	var victims []victim
	for b := uint64(10_000); len(victims) < 2 && b < 10_320; b += 16 {
		rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		d := rec.Digest()
		owners := ring.Owners(d, 2)
		for _, o := range owners {
			if o == dead.url {
				other := owners[0]
				if other == dead.url {
					other = owners[1]
				}
				victims = append(victims, victim{rec: rec, digest: d, liveOwner: other})
			}
		}
	}
	if len(victims) < 2 {
		t.Fatalf("no budget variation made %s an owner twice", dead.url)
	}

	// Kill the node, then upload to each digest's surviving owner: the
	// dead owner's copy cannot be delivered.
	dead.close()
	for _, v := range victims {
		uploadTrace(t, v.liveOwner, v.rec)
	}
	for _, n := range nodes[:2] {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := n.srv.fabric.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("drain on %s: %v", n.url, err)
		}
	}

	dead.restart(t)
	for _, v := range victims {
		if dead.srv.batcher.HasTrace(v.digest) {
			t.Fatal("restarted node already holds a victim digest; repair has nothing to prove")
		}
	}

	// One repair cycle per surviving node must restore full
	// replication.
	backfilled := 0
	for _, n := range nodes[:2] {
		rep := postRepair(t, n.url)
		backfilled += rep.Backfilled
		if rep.Failed != 0 {
			t.Fatalf("repair on %s: %d failed backfills", n.url, rep.Failed)
		}
	}
	if backfilled != len(victims) {
		t.Fatalf("repair backfilled %d copies, want %d", backfilled, len(victims))
	}
	for _, v := range victims {
		for _, o := range ring.Owners(v.digest, 2) {
			if !byURL[o].srv.batcher.HasTrace(v.digest) {
				t.Fatalf("owner %s still missing %s after repair", o, v.digest)
			}
		}
		res := runDigestStudy(t, dead.url, v.digest)
		if got := studyJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("backfilled replay differs from live run:\ngot  %s\nwant %s", got, want)
		}
	}
	// Nothing is left owed: a second cycle on each survivor finds
	// every owner holding its copies.
	for _, n := range nodes[:2] {
		if rep := postRepair(t, n.url); rep.Backfilled != 0 || rep.Failed != 0 {
			t.Fatalf("second repair on %s: %+v, want backfilled 0, failed 0", n.url, rep)
		}
	}
}

// TestChaosDropsConvergeViaRepair: with every peer request delayed and
// 30% of them dropped, the periodic repair loop must still drive the
// cluster to full replication — no manual intervention, no lost
// digests.
func TestChaosDropsConvergeViaRepair(t *testing.T) {
	nodes := startCluster(t, 3, 2, func(i int, cc *cluster.Config, opt *tlr.BatchOptions) {
		inj := cluster.NewInjector(nil)
		inj.Add(&cluster.InjectRule{Delay: time.Millisecond})
		inj.Add(&cluster.InjectRule{Prob: 0.3, Drop: true})
		cc.Client = &http.Client{Transport: inj}
		cc.Retries = 2
		cc.BreakerCooldown = time.Millisecond
		cc.RepairEvery = 25 * time.Millisecond
	})
	byURL := map[string]*cnode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}
	ring, err := cluster.NewRing([]string{nodes[0].url, nodes[1].url, nodes[2].url})
	if err != nil {
		t.Fatal(err)
	}

	var digests []string
	for i, b := range []uint64{10_000, 10_016, 10_032} {
		rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, rec.Digest())
		uploadTrace(t, nodes[i%3].url, rec)
	}
	waitFor(t, "full replication under 30% request drop", func() bool {
		for _, d := range digests {
			for _, o := range ring.Owners(d, 2) {
				if !byURL[o].srv.batcher.HasTrace(d) {
					return false
				}
			}
		}
		return true
	})
}

// TestOverloadShedsWith429: beyond the -max-inflight budget,
// simulation-bearing requests must be refused immediately with 429 and
// a Retry-After — bounded load, fast refusal — and admitted again once
// capacity frees up.  A batch charges its full job count.
func TestOverloadShedsWith429(t *testing.T) {
	srv := newServer(tlr.BatchOptions{Workers: 2, MaxInflight: 2})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		srv.batcher.Close()
	})
	runBody := `{"workload": "li", "study": {"budget": 4000, "window": 256}}`
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Occupy the whole budget by hand, as two long-running jobs would.
	release, err := srv.batcher.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	resp := post("/v1/run", runBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded run status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if resp := post("/v1/batch", `{"jobs": [`+runBody+`]}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch status = %d, want 429", resp.StatusCode)
	}

	// Capacity back: the same run is admitted and completes.
	release()
	if resp := post("/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release run status = %d, want 200", resp.StatusCode)
	}

	// A batch wider than the whole budget is refused even on an idle
	// server: it could never be admitted, so failing fast beats hanging.
	big := `{"jobs": [` + runBody + `, ` + runBody + `, ` + runBody + `]}`
	if resp := post("/v1/batch", big); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch status = %d, want 429", resp.StatusCode)
	}

	if st := serviceStats(t, ts.URL); st.MaxInflight != 2 || st.Shed != 3 {
		t.Fatalf("admission stats = %+v, want MaxInflight 2 and 3 sheds", st)
	}
}
