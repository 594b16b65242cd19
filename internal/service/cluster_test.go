package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// recordTestTrace records n instructions of a workload into a trace.
func recordTestTrace(t *testing.T, name string, n uint64) *tracefile.Trace {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	rec := tracefile.NewRecorder()
	if _, err := cpu.New(prog).Run(n, rec.Write); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

func traceBytes(t *testing.T, tr *tracefile.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fakePeerFetch is an Options.PeerFetch backed by a digest→bytes map,
// counting how often it is consulted.
type fakePeerFetch struct {
	blobs map[string][]byte
	calls atomic.Int64
}

func (p *fakePeerFetch) fetch(digest string, exclude []string) (io.ReadCloser, string, error) {
	p.calls.Add(1)
	for _, e := range exclude {
		if e == "test-peer" {
			return nil, "", nil // the only peer is excluded: no holder left
		}
	}
	b, ok := p.blobs[digest]
	if !ok {
		return nil, "", nil
	}
	return io.NopCloser(bytes.NewReader(b)), "test-peer", nil
}

// TestResolveTraceOrdering: resolution must fall through memory → disk
// → peer → miss, consulting the peer only when both local tiers miss,
// and caching a peer hit so the next lookup stays local.
func TestResolveTraceOrdering(t *testing.T) {
	dir := t.TempDir()
	peer := &fakePeerFetch{blobs: map[string][]byte{}}
	s := New(Options{Workers: 1, TraceDir: dir, PeerFetch: peer.fetch})
	defer s.Close()

	// Memory (and write-through disk) hit: peer never consulted.
	tr := recordTestTrace(t, "compress", 3000)
	digest := s.AddTrace(tr)
	if _, ok := s.ResolveTrace(digest); !ok {
		t.Fatal("stored trace did not resolve")
	}
	if peer.calls.Load() != 0 {
		t.Fatalf("memory hit consulted the peer %d times", peer.calls.Load())
	}

	// Disk-only hit: a digest present only as a file (a rehydrated
	// store) must resolve without peer traffic.
	diskTr := recordTestTrace(t, "li", 3000)
	if err := diskTr.Save(filepath.Join(dir, tracefile.DigestFileName(diskTr.Digest()))); err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, TraceDir: dir, PeerFetch: peer.fetch})
	defer s2.Close()
	if _, ok := s2.ResolveTrace(diskTr.Digest()); !ok {
		t.Fatal("disk-tier trace did not resolve")
	}
	if peer.calls.Load() != 0 {
		t.Fatalf("disk hit consulted the peer %d times", peer.calls.Load())
	}

	// Full miss: the peer is consulted, has nothing, and the lookup
	// counts one miss.
	if _, ok := s2.ResolveTrace("sha256-0000"); ok {
		t.Fatal("unknown digest resolved")
	}
	if peer.calls.Load() != 1 {
		t.Fatalf("miss consulted the peer %d times, want 1", peer.calls.Load())
	}
	if st := s2.Stats(); st.TraceMisses != 1 {
		t.Fatalf("TraceMisses = %d, want 1", st.TraceMisses)
	}

	// Peer hit: the fetched trace resolves, is installed locally, and
	// the next lookup does not touch the peer again.
	remote := recordTestTrace(t, "gcc", 3000)
	peer.blobs[remote.Digest()] = traceBytes(t, remote)
	h, ok := s2.ResolveTrace(remote.Digest())
	if !ok || h.Digest != remote.Digest() {
		t.Fatalf("peer-held digest did not resolve: %+v ok=%v", h, ok)
	}
	if peer.calls.Load() != 2 {
		t.Fatalf("peer fetch consulted the peer %d times, want 2", peer.calls.Load())
	}
	if st := s2.Stats(); st.TracePeerFetches != 1 {
		t.Fatalf("TracePeerFetches = %d, want 1", st.TracePeerFetches)
	}
	if _, ok := s2.ResolveTrace(remote.Digest()); !ok {
		t.Fatal("fetched trace did not resolve locally")
	}
	if peer.calls.Load() != 2 {
		t.Fatal("second lookup of a fetched trace went back to the peer")
	}
	if !s2.HasTrace(remote.Digest()) {
		t.Fatal("fetched trace not visible to HasTrace")
	}
}

// TestResolveTraceRejectsCorruptPeerBody: a peer that serves a valid
// container for the *wrong* digest (or garbage) must be rejected, and
// the rejected body must not be cached under the requested digest —
// the next lookup asks again.
func TestResolveTraceRejectsCorruptPeerBody(t *testing.T) {
	wanted := recordTestTrace(t, "compress", 3000)
	other := recordTestTrace(t, "li", 3000)
	for name, body := range map[string][]byte{
		"wrong-content": traceBytes(t, other),
		"garbage":       []byte("not a trace container at all"),
	} {
		t.Run(name, func(t *testing.T) {
			for _, withDisk := range []bool{true, false} {
				dir := ""
				if withDisk {
					dir = t.TempDir()
				}
				peer := &fakePeerFetch{blobs: map[string][]byte{wanted.Digest(): body}}
				s := New(Options{Workers: 1, TraceDir: dir, PeerFetch: peer.fetch})
				if _, ok := s.ResolveTrace(wanted.Digest()); ok {
					t.Fatalf("withDisk=%v: corrupt peer body resolved the digest", withDisk)
				}
				if !s.HasTrace(wanted.Digest()) {
					// Expected: the digest must NOT be locally resolvable...
				} else {
					t.Fatalf("withDisk=%v: rejected body was cached under the requested digest", withDisk)
				}
				if _, ok := s.ResolveTrace(wanted.Digest()); ok {
					t.Fatalf("withDisk=%v: second lookup resolved", withDisk)
				}
				// Nor is it stored under its own digest: a rejected body
				// never enters the memory tier (where it could evict
				// what the tier holds) or the disk index.
				if got := s.Traces(); len(got) != 0 {
					t.Fatalf("withDisk=%v: rejected body stored: %+v", withDisk, got)
				}
				if s.HasTrace(other.Digest()) {
					t.Fatalf("withDisk=%v: rejected body resolves its own digest", withDisk)
				}
				// Each lookup consults the peer twice: the corrupt body is
				// rejected, then the retry (with the peer excluded) finds
				// no remaining holder.
				if got := peer.calls.Load(); got != 4 {
					t.Fatalf("withDisk=%v: peer consulted %d times, want 4 (rejects are not cached)", withDisk, got)
				}
				st := s.Stats()
				if st.TracePeerRejects != 2 || st.TracePeerFetches != 0 {
					t.Fatalf("withDisk=%v: stats %+v, want 2 rejects and 0 fetches", withDisk, st)
				}
				s.Close()
			}
		})
	}
}

// TestResolveTraceFallsThroughCorruptPeer: when the first peer serves
// a corrupt body, the lookup must exclude it and fall through to the
// next holder rather than giving up — a dying or lying primary owner
// cannot mask a healthy replica.
func TestResolveTraceFallsThroughCorruptPeer(t *testing.T) {
	wanted := recordTestTrace(t, "compress", 3000)
	good := traceBytes(t, wanted)
	var calls atomic.Int64
	fetch := func(digest string, exclude []string) (io.ReadCloser, string, error) {
		calls.Add(1)
		skipped := make(map[string]bool, len(exclude))
		for _, e := range exclude {
			skipped[e] = true
		}
		switch {
		case !skipped["p1"]:
			return io.NopCloser(bytes.NewReader([]byte("corrupt bytes"))), "p1", nil
		case !skipped["p2"]:
			return io.NopCloser(bytes.NewReader(good)), "p2", nil
		default:
			return nil, "", nil
		}
	}
	s := New(Options{Workers: 1, TraceDir: t.TempDir(), PeerFetch: fetch})
	defer s.Close()
	h, ok := s.ResolveTrace(wanted.Digest())
	if !ok || h.Digest != wanted.Digest() {
		t.Fatalf("resolve through corrupt primary failed: %+v ok=%v", h, ok)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("peer consulted %d times, want 2 (corrupt then fall-through)", got)
	}
	st := s.Stats()
	if st.TracePeerRejects != 1 || st.TracePeerFetches != 1 {
		t.Fatalf("stats %+v, want one reject and one successful fetch", st)
	}
}

// TestReserveAdmission: the in-flight budget must shed exactly the
// reservations beyond it, releases must restore capacity, and a
// release must be idempotent.
func TestReserveAdmission(t *testing.T) {
	s := New(Options{Workers: 1, MaxInflight: 3})
	defer s.Close()

	rel1, err := s.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(2); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget reservation returned %v, want ErrOverloaded", err)
	}
	rel2, err := s.Reserve(1)
	if err != nil {
		t.Fatalf("in-budget reservation failed: %v", err)
	}
	if got := s.Inflight(); got != 3 {
		t.Fatalf("inflight = %d, want 3", got)
	}
	st := s.Stats()
	if st.InflightJobs != 3 || st.MaxInflight != 3 || st.Shed != 1 {
		t.Fatalf("stats %+v, want 3 in flight and one shed", st)
	}
	rel1()
	rel1() // idempotent: double release must not free extra capacity
	if got := s.Inflight(); got != 1 {
		t.Fatalf("inflight after release = %d, want 1", got)
	}
	rel3, err := s.Reserve(2)
	if err != nil {
		t.Fatalf("reservation after release failed: %v", err)
	}
	rel2()
	rel3()
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight after all releases = %d, want 0", got)
	}

	// Unlimited budget: never sheds, still counts.
	u := New(Options{Workers: 1})
	defer u.Close()
	rel, err := u.Reserve(1 << 20)
	if err != nil {
		t.Fatalf("unlimited reservation failed: %v", err)
	}
	if got := u.Inflight(); got != 1<<20 {
		t.Fatalf("unlimited inflight = %d, want %d", got, 1<<20)
	}
	rel()
}

// TestConcurrentInstallsCountOnce: concurrent uploads and lookups of
// one trace on a disk-tier store index it once and count one spill,
// every lookup resolves, and the registry's spill and promote counters
// read what Stats reads (run under -race in CI).  An upload within the
// promote bound enters memory from its spool, so no lookup promotes;
// one whose payload is over the bound but whose file is within it
// stays disk-only until the lookups promote it, 1-4 times.  Then other
// traces, more than the memory tier holds, evict it while lookups
// promote it back and goroutines read Stats, Traces, TraceRecords and
// the metrics exposition: the store's own lock must keep every view
// consistent, so afterwards the memory tier's bytes are the sum its
// listing gives and the registry reads what Stats reads.
func TestConcurrentInstallsCountOnce(t *testing.T) {
	tr := recordTestTrace(t, "compress", 3000)
	body := traceBytes(t, tr)
	if tr.Bytes() <= len(body) {
		t.Fatalf("payload %d bytes within the %d-byte file: no bound separates them", tr.Bytes(), len(body))
	}
	for _, c := range []struct {
		name                   string
		capBytes               int64
		minPromote, maxPromote uint64
	}{
		{"kept", 16 * int64(tr.Bytes()), 0, 0},
		{"promoted", 8 * int64(len(body)), 1, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{Workers: 1, TraceDir: t.TempDir(), TraceCacheBytes: c.capBytes})
			defer s.Close()
			registryMatches := func(st Stats) {
				t.Helper()
				for _, m := range []struct {
					name, tier string
					want       float64
				}{
					{"tlr_trace_spills_total", "", float64(st.TraceSpills)},
					{"tlr_trace_promotes_total", "", float64(st.TracePromotes)},
					{"tlr_trace_hits_total", "", float64(st.TraceHits)},
					{"tlr_trace_misses_total", "", float64(st.TraceMisses)},
					{"tlr_trace_store_traces", "memory", float64(st.Traces)},
					{"tlr_trace_store_traces", "disk", float64(st.TraceDisk)},
					{"tlr_trace_store_bytes", "memory", float64(st.TraceBytes)},
					{"tlr_trace_store_bytes", "disk", float64(st.TraceDiskBytes)},
				} {
					var labels []string
					if m.tier != "" {
						labels = []string{m.tier}
					}
					if got, ok := s.Metrics().Value(m.name, labels...); !ok || got != m.want {
						t.Errorf("%s%v = %v (found %v), Stats reads %v", m.name, labels, got, ok, m.want)
					}
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.AddTraceStream(bytes.NewReader(body)); err != nil {
						t.Error(err)
						return
					}
					if _, ok := s.ResolveTrace(tr.Digest()); !ok {
						t.Error("uploaded trace did not resolve")
					}
				}()
			}
			wg.Wait()
			st := s.Stats()
			if st.TraceDisk != 1 || st.TraceSpills != 1 || st.Traces != 1 ||
				st.TracePromotes < c.minPromote || st.TracePromotes > c.maxPromote {
				t.Fatalf("stats %+v, want one disk trace, one spill, one memory trace and %d-%d promotions",
					st, c.minPromote, c.maxPromote)
			}
			registryMatches(st)

			others := make([]*tracefile.Trace, c.capBytes/int64(tr.Bytes())+1)
			for i := range others {
				others[i] = recordTestTrace(t, "compress", 3001+uint64(i))
			}
			done := make(chan struct{})
			var readers sync.WaitGroup
			for _, read := range []func(){
				func() { s.Stats() },
				func() { s.Traces() },
				func() {
					if n, ok := s.TraceRecords(tr.Digest()); !ok || n != tr.Records() {
						t.Errorf("TraceRecords = %d, %v during evictions", n, ok)
					}
				},
				func() { s.Metrics().WritePrometheus(io.Discard) },
			} {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
							read()
						}
					}
				}()
			}
			for round := 0; round < 3; round++ {
				for _, o := range others {
					s.AddTrace(o)
				}
				if _, ok := s.ResolveTrace(tr.Digest()); !ok {
					t.Error("evicted trace did not resolve")
				}
			}
			close(done)
			readers.Wait()

			st = s.Stats()
			var memTraces int
			var memBytes int64
			for _, e := range s.Traces() {
				if e.Tier != "disk" {
					memTraces++
					memBytes += int64(e.Bytes)
				}
			}
			if st.Traces != memTraces || st.TraceBytes != memBytes || st.TraceBytes > c.capBytes ||
				st.TraceDisk != 1+len(others) || st.TraceSpills != uint64(1+len(others)) {
				t.Fatalf("stats %+v; the listing holds %d memory-tier traces of %d bytes, %d traces in all",
					st, memTraces, memBytes, 1+len(others))
			}
			registryMatches(st)
		})
	}
}

// TestTraceDigestsListsBothTiers: the repair scan source must see
// memory-tier and disk-only digests exactly once each.
func TestTraceDigestsListsBothTiers(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, TraceDir: dir})
	defer s.Close()
	mem := recordTestTrace(t, "compress", 3000)
	s.AddTrace(mem) // memory + write-through disk
	diskOnly := recordTestTrace(t, "li", 3000)
	if err := diskOnly.Save(filepath.Join(dir, tracefile.DigestFileName(diskOnly.Digest()))); err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, TraceDir: dir})
	defer s2.Close()
	got := s2.TraceDigests()
	want := map[string]bool{mem.Digest(): true, diskOnly.Digest(): true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] || got[0] == got[1] {
		t.Fatalf("TraceDigests = %v, want exactly %v", got, want)
	}
}

// TestTraceRehydrationSkipsJunk: truncated and foreign files in the
// trace dir must be skipped at startup, not crash it or mask the
// valid traces beside them.
func TestTraceRehydrationSkipsJunk(t *testing.T) {
	dir := t.TempDir()
	tr := recordTestTrace(t, "compress", 3000)
	good := filepath.Join(dir, tracefile.DigestFileName(tr.Digest()))
	if err := tr.Save(good); err != nil {
		t.Fatal(err)
	}
	// A foreign file with the store's extension, a truncated container,
	// and a valid container under the wrong digest name.
	if err := os.WriteFile(filepath.Join(dir, "sha256-junk.trc"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sha256-trunc.trc"), full[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, tracefile.DigestFileName("sha256-0000000000000000000000000000000000000000000000000000000000000000"))
	if err := os.WriteFile(misnamed, full, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, TraceDir: dir})
	defer s.Close()
	if st := s.Stats(); st.TraceDisk != 1 {
		t.Fatalf("TraceDisk = %d, want 1 (junk skipped, good kept)", st.TraceDisk)
	}
	if _, ok := s.ResolveTrace(tr.Digest()); !ok {
		t.Fatal("valid trace beside junk did not rehydrate")
	}
}

// TestResultCachePersistsAcrossRestart: a keyed result computed once
// must survive a Service restart on the same ResultDir and answer the
// identical job from disk — byte-identically, without re-running.
func TestResultCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("workload compress missing")
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	src := ProgSource("test-src", prog)
	params := StudyParams{Budget: 5000, Window: 256}

	s := New(Options{Workers: 2, ResultDir: dir})
	cold, err := s.Submit(context.Background(), []Job{StudyJob("cold", src, params)}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultDiskWrites != 1 || st.ResultsOnDisk != 1 {
		t.Fatalf("stats after cold run %+v, want one persisted result", st)
	}
	s.Close()

	s2 := New(Options{Workers: 2, ResultDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.ResultsOnDisk != 1 {
		t.Fatalf("restart rehydrated %d results, want 1", st.ResultsOnDisk)
	}
	warm, err := s2.Submit(context.Background(), []Job{StudyJob("warm", src, params)}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("restarted service re-ran a persisted job")
	}
	st := s2.Stats()
	if st.ResultDiskHits != 1 || st.Ran != 0 {
		t.Fatalf("stats after warm run %+v, want one disk hit and no runs", st)
	}
	coldJSON, err := json.Marshal(cold[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(warm[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("persisted result differs:\ncold %s\nwarm %s", coldJSON, warmJSON)
	}
}

// TestResultRehydrationSkipsJunk: junk .res files must be logged and
// skipped at startup, and untyped results must stay memory-only.
func TestResultRehydrationSkipsJunk(t *testing.T) {
	dir := t.TempDir()

	// Persist one real result to sit beside the junk.
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, ResultDir: dir})
	if _, err := s.Submit(context.Background(),
		[]Job{StudyJob("j", ProgSource("k", prog), StudyParams{Budget: 2000})}, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	// An untyped keyed result must not be persisted.
	if _, err := s.Submit(context.Background(),
		[]Job{{ID: "u", Key: "custom|key", Run: func(context.Context) (any, error) { return 42, nil }}}, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultDiskWrites != 1 {
		t.Fatalf("ResultDiskWrites = %d, want 1 (untyped result persisted?)", st.ResultDiskWrites)
	}
	s.Close()

	junk := map[string]string{
		"short.res":   "{",
		"foreign.res": `{"v":99,"key":"x","kind":"study","value":{}}`,
		"badval.res":  `{"v":1,"key":"x","kind":"study","value":"not an object"}`,
		"renamed.res": `{"v":1,"key":"some-key","kind":"vp","value":{}}`, // name ≠ sha256(key)
	}
	for name, body := range junk {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := New(Options{Workers: 1, ResultDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.ResultsOnDisk != 1 {
		t.Fatalf("rehydrated %d results, want 1 (junk must be skipped)", st.ResultsOnDisk)
	}
}

// TestResultEnvelopeLoadsNullDDA: study envelopes written before
// StudyOutput.DDA was omitempty carry "DDA":null; they must still
// rehydrate and load as the same result.
func TestResultEnvelopeLoadsNullDDA(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1})
	res, err := s.Submit(context.Background(),
		[]Job{StudyJob("j", ProgSource("k", prog), StudyParams{Budget: 2000})}, 0).Wait()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := res[0].Value.(StudyOutput)

	// The parent's encoding: the same fields, in order, DDA untagged.
	raw, err := json.Marshal(struct{ ILR, TLR, DDA any }{want.ILR, want.TLR, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"DDA":null`)) {
		t.Fatalf("old-form value lacks \"DDA\":null: %s", raw)
	}
	dir := t.TempDir()
	const key = "study|old-envelope"
	env, err := json.Marshal(resultEnvelope{V: resultEnvelopeVersion, Key: key, Kind: "study", Value: raw})
	if err != nil {
		t.Fatal(err)
	}
	d := newResultDisk(dir)
	if err := os.WriteFile(d.path(key), env, 0o644); err != nil {
		t.Fatal(err)
	}

	d.rehydrate()
	if !d.known[key] {
		t.Fatal("envelope with \"DDA\":null was skipped at rehydration")
	}
	got, err := d.load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTamperedDiskFileIsNotPromoted: a disk-tier file whose payload
// still decodes but no longer matches its declared digest (one output
// value flipped, the header left alone) must not be promoted into the
// memory tier: promotion keeps the file's payload, so it is the digest
// check that refuses it.  Nor may a valid container of another trace,
// put under the digest's file name, be promoted as that digest.
func TestTamperedDiskFileIsNotPromoted(t *testing.T) {
	tr := recordTestTrace(t, "compress", 3000)
	body := traceBytes(t, tr)
	// install stores tr on a fresh disk-tier service whose promote bound
	// admits the file but not its payload (so the upload stays
	// disk-only), replaces its file with repl and resolves the digest,
	// which must not promote.  It returns the file's path and the
	// resolved handle.
	install := func(repl []byte) (string, TraceHandle) {
		dir := t.TempDir()
		s := New(Options{Workers: 1, TraceDir: dir, TraceCacheBytes: 8 * int64(len(body))})
		defer s.Close()
		info, err := s.AddTraceStream(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if info.Tier != "disk" {
			t.Fatalf("upload landed in tier %q, want disk", info.Tier)
		}
		path := filepath.Join(dir, tracefile.DigestFileName(info.Digest))
		if err := os.WriteFile(path, repl, 0o644); err != nil {
			t.Fatal(err)
		}
		h, ok := s.ResolveTrace(info.Digest)
		if !ok {
			t.Fatal("disk-tier digest did not resolve")
		}
		if st := s.Stats(); st.TracePromotes != 0 {
			t.Fatalf("replaced file promoted %d times", st.TracePromotes)
		}
		return path, h
	}

	// Another trace's container under the digest's name: its header
	// disagrees with the index entry, so the stream fallback refuses it
	// too.
	_, h := install(traceBytes(t, recordTestTrace(t, "compress", 3001)))
	if st, err := h.Open(); err == nil {
		st.Close()
		t.Fatal("a swapped file opened as the stored digest's stream")
	}

	// The same records with one output value's low bit flipped: same
	// record count, canonical size and dictionary, another digest.
	rec := tracefile.NewRecorder()
	cur := tr.Cursor()
	flipped := false
	var e trace.Exec
	for cur.Next(&e) == nil {
		if !flipped && e.NOut > 0 {
			e.Out[0].Val ^= 1
			flipped = true
		}
		rec.Write(&e)
	}
	cur.Close()
	tampered := traceBytes(t, rec.Trace())
	// Keep the original header's digest (magic, version and record
	// count precede it).
	sum, err := hex.DecodeString(strings.TrimPrefix(tr.Digest(), tracefile.DigestPrefix))
	if err != nil {
		t.Fatal(err)
	}
	copy(tampered[12+8:], sum)
	path, _ := install(tampered)
	if _, err := tracefile.OpenFile(path); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("loading the tampered file: %v, want a digest mismatch", err)
	}
}
