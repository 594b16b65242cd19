package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/cluster"
)

// cnode is one in-process cluster node: a full server (own batcher,
// trace dir, result dir, fabric) listening on a real TCP port.  The
// config and options are kept so restart can rebuild the node on the
// same address and data directory — the self-healing tests kill and
// resurrect nodes mid-test.
type cnode struct {
	url      string
	srv      *server
	ts       *httptest.Server
	traceDir string
	cc       cluster.Config
	opt      tlr.BatchOptions
	closed   bool
}

func (n *cnode) close() {
	if n.closed {
		return
	}
	n.closed = true
	n.ts.Close()
	if n.srv.fabric != nil {
		n.srv.fabric.Close()
	}
	n.srv.batcher.Close()
}

// start builds the node's server and serves it on ln.
func (n *cnode) start(t *testing.T, ln net.Listener) {
	t.Helper()
	cc := n.cc // newClusterServer wires closures into the copy
	srv, err := newClusterServer(n.opt, &cc)
	if err != nil {
		t.Fatal(err)
	}
	n.srv = srv
	ts := httptest.NewUnstartedServer(srv.mux())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	n.ts = ts
	n.closed = false
}

// restart closes the node (if still up) and rebuilds it on the same
// address and trace directory, as a crashed-and-relaunched process
// would: stored traces survive, in-memory state does not.
func (n *cnode) restart(t *testing.T) {
	t.Helper()
	n.close()
	var ln net.Listener
	waitFor(t, "address release for restart", func() bool {
		var err error
		ln, err = net.Listen("tcp", strings.TrimPrefix(n.url, "http://"))
		return err == nil
	})
	n.start(t, ln)
}

// startCluster brings up n nodes that all know each other.  Listeners
// are bound before any server is built so every node's -peers list
// can name the full set.  Each mod may adjust a node's cluster config
// and batch options before it starts (fault injection, admission
// budgets, repair intervals).
func startCluster(t *testing.T, n, replication int, mods ...func(i int, cc *cluster.Config, opt *tlr.BatchOptions)) []*cnode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*cnode, n)
	for i := range nodes {
		node := &cnode{
			url:      urls[i],
			traceDir: t.TempDir(),
			cc: cluster.Config{
				Self:        urls[i],
				Peers:       urls,
				Replication: replication,
				Backoff:     time.Millisecond,
				Logf:        t.Logf,
			},
			opt: tlr.BatchOptions{
				Workers:   2,
				TraceDir:  "", // set below: mods see the final value
				ResultDir: t.TempDir(),
			},
		}
		node.opt.TraceDir = node.traceDir
		for _, mod := range mods {
			mod(i, &node.cc, &node.opt)
		}
		node.start(t, listeners[i])
		nodes[i] = node
		t.Cleanup(node.close)
	}
	return nodes
}

func uploadTrace(t *testing.T, url string, rec *tlr.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload to %s: status %d", url, resp.StatusCode)
	}
}

// runDigestStudy posts a digest-referenced study run and decodes the
// result.  extraHeader optionally sets one header (used to suppress
// forwarding and force local execution).
func runDigestStudy(t *testing.T, url, digest string, extraHeader ...string) tlr.Result {
	t.Helper()
	body := fmt.Sprintf(`{"trace": {"digest": %q}, "study": {"budget": 8000, "window": 256}}`, digest)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(extraHeader); i += 2 {
		req.Header.Set(extraHeader[i], extraHeader[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run on %s: status %d", url, resp.StatusCode)
	}
	var res tlr.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run on %s: %v", url, res.Err)
	}
	return res
}

func studyJSON(t *testing.T, res tlr.Result) []byte {
	t.Helper()
	if res.Study == nil {
		t.Fatalf("result has no study payload: %+v", res)
	}
	b, err := json.Marshal(res.Study)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveStudy computes the baseline: the same study executed live (the
// workload's program on the functional simulator) in this process.
func liveStudy(t *testing.T, workloadName string) []byte {
	t.Helper()
	b := tlr.NewBatcher(tlr.BatchOptions{Workers: 2})
	defer b.Close()
	res, err := b.Run(context.Background(), tlr.Request{
		Workload: workloadName,
		Study:    &tlr.StudyConfig{Budget: 8000, Window: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	return studyJSON(t, res)
}

// TestClusterThreeNodeFabric: a trace uploaded to one node must be
// replayable by digest from every node, byte-identically to live
// execution — via replication on the owners, forwarding from the
// non-owner, and a peer fetch when forwarding is suppressed.
func TestClusterThreeNodeFabric(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	byURL := map[string]*cnode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	digest := rec.Digest()
	want := liveStudy(t, "li")

	// The nodes and the test compute placement from the same ring.
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	owners := ring.Owners(digest, 2)
	var nonOwner *cnode
	for _, n := range nodes {
		if n.url != owners[0] && n.url != owners[1] {
			nonOwner = n
		}
	}

	// Upload to the primary owner; the copy must reach the replica
	// asynchronously, while the non-owner stays empty.
	uploadTrace(t, owners[0], rec)
	if !byURL[owners[0]].srv.batcher.HasTrace(digest) {
		t.Fatal("upload target does not hold the trace")
	}
	waitFor(t, "replication to the second owner", func() bool {
		return byURL[owners[1]].srv.batcher.HasTrace(digest)
	})
	if nonOwner.srv.batcher.HasTrace(digest) {
		t.Fatal("replication placed a copy on a non-owner")
	}

	// Every node answers the digest run identically to live execution.
	for _, n := range nodes {
		res := runDigestStudy(t, n.url, digest)
		if got := studyJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("node %s study differs from live run:\ngot  %s\nwant %s", n.url, got, want)
		}
		if res.Node == "" {
			t.Fatalf("node %s result carries no node label", n.url)
		}
	}

	// The non-owner must have answered by forwarding, not by pulling a
	// copy: digest routing sends the work to the data.
	res := runDigestStudy(t, nonOwner.url, digest)
	if !res.Forwarded {
		t.Fatalf("non-owner result not forwarded: %+v", res)
	}
	if res.Node == nonOwner.url {
		t.Fatalf("forwarded run reports the non-owner as executor")
	}
	if nonOwner.srv.batcher.HasTrace(digest) {
		t.Fatal("forwarded run pulled the trace anyway")
	}

	// Suppressing forwarding forces the pull path: the non-owner must
	// fetch the trace from an owner, cache it, and still answer
	// identically; its stats must show the peer fetch.
	local := runDigestStudy(t, nonOwner.url, digest, cluster.HeaderForwarded, "1")
	if local.Forwarded {
		t.Fatal("suppressed forwarding still forwarded")
	}
	if got := studyJSON(t, local); !bytes.Equal(got, want) {
		t.Fatalf("peer-fetch study differs from live run:\ngot  %s\nwant %s", got, want)
	}
	if !nonOwner.srv.batcher.HasTrace(digest) {
		t.Fatal("peer fetch did not cache the trace locally")
	}
	if st := nonOwner.srv.batcher.Stats(); st.TracePeerFetches != 1 {
		t.Fatalf("TracePeerFetches = %d, want 1", st.TracePeerFetches)
	}
	sections := getStats(t, nonOwner.url, "cluster", "runtime", "service")
	var clusterStats struct {
		Fabric cluster.Stats `json:"fabric"`
	}
	if err := json.Unmarshal(sections["cluster"], &clusterStats); err != nil {
		t.Fatal(err)
	}
	if clusterStats.Fabric.FetchHits != 1 {
		t.Fatalf("/v1/stats cluster.fabric = %+v, want 1 fetch hit", clusterStats.Fabric)
	}
}

// TestClusterSurvivesOwnerDown: with replication factor 2, a digest
// must stay resolvable from any live node after its primary owner
// dies.
func TestClusterSurvivesOwnerDown(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	byURL := map[string]*cnode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "compress", Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	digest := rec.Digest()
	want := liveStudy(t, "compress")

	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	owners := ring.Owners(digest, 2)
	var nonOwner *cnode
	for _, n := range nodes {
		if n.url != owners[0] && n.url != owners[1] {
			nonOwner = n
		}
	}

	uploadTrace(t, owners[0], rec)
	waitFor(t, "replication to the second owner", func() bool {
		return byURL[owners[1]].srv.batcher.HasTrace(digest)
	})

	// Kill the primary owner.  The non-owner's first forward attempt
	// may chase the corpse; the fallback must pull from the surviving
	// replica and answer correctly.
	byURL[owners[0]].close()
	res := runDigestStudy(t, nonOwner.url, digest)
	if got := studyJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("post-failure study differs from live run:\ngot  %s\nwant %s", got, want)
	}
	// And the surviving owner still answers locally.
	res = runDigestStudy(t, owners[1], digest)
	if got := studyJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("surviving owner study differs from live run:\ngot  %s\nwant %s", got, want)
	}
}

// TestRestartPreservesTracesAndResults: killing and restarting a node
// on the same data directories must preserve both its traces and its
// warm results — the second identical request is a disk-tier result
// cache hit, not a re-simulation.
func TestRestartPreservesTracesAndResults(t *testing.T) {
	traceDir, resultDir := t.TempDir(), t.TempDir()
	opt := tlr.BatchOptions{Workers: 2, TraceDir: traceDir, ResultDir: resultDir}

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	digest := rec.Digest()

	srv1 := newServer(opt)
	ts1 := httptest.NewServer(srv1.mux())
	uploadTrace(t, ts1.URL, rec)
	cold := runDigestStudy(t, ts1.URL, digest)
	if st := srv1.batcher.Stats(); st.Ran != 1 || st.ResultDiskWrites != 1 {
		t.Fatalf("cold stats %+v, want one run persisted", st)
	}
	ts1.Close()
	srv1.batcher.Close()

	// Restart on the same directories: the trace and the warm result
	// must both come back.
	srv2 := newServer(opt)
	ts2 := httptest.NewServer(srv2.mux())
	defer func() {
		ts2.Close()
		srv2.batcher.Close()
	}()
	if !srv2.batcher.HasTrace(digest) {
		t.Fatal("restart lost the stored trace")
	}
	warm := runDigestStudy(t, ts2.URL, digest)
	if !warm.Cached {
		t.Fatal("restarted node re-simulated a persisted result")
	}
	if !bytes.Equal(studyJSON(t, cold), studyJSON(t, warm)) {
		t.Fatalf("warm result differs from cold:\ncold %s\nwarm %s",
			studyJSON(t, cold), studyJSON(t, warm))
	}
	st := srv2.batcher.Stats()
	if st.ResultDiskHits != 1 || st.Ran != 0 {
		t.Fatalf("warm stats %+v, want one disk hit and no runs", st)
	}
}
