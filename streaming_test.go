package tlr

// Tests for the streaming-first TraceSource contract: composite
// sources (Concat), streamed (file- and disk-tier-
// backed) replay equivalence across the RTM configuration grid, the
// two-tier trace store, and the trace-driven DDA path.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/tracefile"
)

// TestConcatOfWindowsEqualsLongRecording: concatenating two adjacent
// recorded windows of one program reproduces the single long recording
// — record for record (equal analysis results) and digest for digest
// (Materialize of the composite has the long recording's content
// digest), with nothing materialised during replay.
func TestConcatOfWindowsEqualsLongRecording(t *testing.T) {
	const half, whole = 20_000, 40_000
	ctx := context.Background()
	long, err := Record(ctx, RecordSpec{Workload: "compress", Budget: whole})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := Record(ctx, RecordSpec{Workload: "compress", Budget: half})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Record(ctx, RecordSpec{Workload: "compress", Skip: half, Budget: whole - half})
	if err != nil {
		t.Fatal(err)
	}

	cat := Concat(w1, w2)
	mat, err := Materialize(cat)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Digest() != long.Digest() || mat.Records() != long.Records() {
		t.Fatalf("Concat materialises to %s/%d, long recording is %s/%d",
			mat.Digest(), mat.Records(), long.Digest(), long.Records())
	}

	// The composite replays like the long recording for every
	// trace-driven kind.  The two carry different cache keys (composite
	// identity vs recording provenance), so both actually simulate.
	b := NewBatcher(BatchOptions{})
	defer b.Close()
	reqs := func(src TraceSource) []Request {
		return []Request{
			{ID: "study", Trace: src, Study: &StudyConfig{Budget: 30_000, Skip: 5_000, Window: 256}},
			{ID: "rtm", Trace: src, RTM: &RTMConfig{Geometry: Geometry4K, Heuristic: ILREXP}, Skip: 5_000, Budget: 30_000},
			{ID: "vp", Trace: src, VP: &VPConfig{Window: 256}, Skip: 5_000, Budget: 30_000},
		}
	}
	fromLong, err := b.RunBatch(ctx, reqs(long))
	if err != nil {
		t.Fatal(err)
	}
	fromCat, err := b.RunBatch(ctx, reqs(cat))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromLong {
		if fromCat[i].Cached {
			t.Errorf("%s: composite unexpectedly shared the recording's cache entry", fromCat[i].ID)
		}
		if !reflect.DeepEqual(payload(fromLong[i]), payload(fromCat[i])) {
			t.Errorf("%s: concat replay differs from the long recording:\nlong   %+v\nconcat %+v",
				fromLong[i].ID, payload(fromLong[i]), payload(fromCat[i]))
		}
	}
}

// TestStreamedReplayEquivalenceAcrossGrid is the satellite coverage
// contract: replay through every streaming path — the in-memory
// recording, the file decoded incrementally, and a disk-tier store
// entry — is byte-identical to live execution across all RTM
// heuristics and geometries (plus the other trace-driven kinds).
func TestStreamedReplayEquivalenceAcrossGrid(t *testing.T) {
	const skip, budget = 2_000, 20_000
	ctx := context.Background()
	rec, err := Record(ctx, RecordSpec{Workload: "compress", Budget: skip + budget})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rec.trc")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}

	var reqs []Request
	add := func(r Request, src TraceSource) Request {
		if src != nil {
			r.Trace = src
		} else {
			r.Workload = "compress"
		}
		return r
	}
	grid := func(src TraceSource) []Request {
		reqs = reqs[:0]
		for _, h := range []Heuristic{ILRNE, ILREXP, IEXP} {
			for _, g := range []Geometry{Geometry512, Geometry4K, Geometry32K} {
				reqs = append(reqs, add(Request{
					RTM: &RTMConfig{Geometry: g, Heuristic: h, N: 4}, Skip: skip, Budget: budget,
				}, src))
			}
		}
		reqs = append(reqs,
			add(Request{RTM: &RTMConfig{Geometry: Geometry4K, Heuristic: ILREXP, InvalidateOnWrite: true}, Skip: skip, Budget: budget}, src),
			add(Request{Study: &StudyConfig{Budget: budget, Skip: skip, Window: 256}}, src),
			add(Request{VP: &VPConfig{Window: 256}, Skip: skip, Budget: budget}, src))
		return append([]Request(nil), reqs...)
	}

	run := func(t *testing.T, opts BatchOptions, src TraceSource, setup func(b *Batcher)) []Result {
		t.Helper()
		b := NewBatcher(opts)
		defer b.Close()
		if setup != nil {
			setup(b)
		}
		res, err := b.RunBatch(ctx, grid(src))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	live := run(t, BatchOptions{}, nil, nil)
	check := func(name string, got []Result) {
		t.Helper()
		for i := range live {
			if got[i].Cached {
				t.Fatalf("%s: cell %d answered from cache; equivalence not actually tested", name, i)
			}
			if !reflect.DeepEqual(payload(live[i]), payload(got[i])) {
				t.Errorf("%s: cell %d diverges from live execution:\nlive   %+v\nreplay %+v",
					name, i, payload(live[i]), payload(got[i]))
			}
		}
	}

	// File-backed: every replay decodes the container incrementally.
	fileRes := run(t, BatchOptions{}, TraceFile(path), nil)
	check("file stream", fileRes)

	// Disk-tier-backed: a tiny memory tier keeps the trace on disk
	// (below the promote threshold nothing is ever materialised).
	diskRes := run(t, BatchOptions{TraceStoreBytes: 4096, TraceDir: t.TempDir()},
		TraceRef(rec.Digest()),
		func(b *Batcher) {
			f := bytes.NewBuffer(nil)
			if _, err := rec.WriteTo(f); err != nil {
				t.Fatal(err)
			}
			info, err := b.StoreTraceFrom(f)
			if err != nil {
				t.Fatal(err)
			}
			if info.Tier != "disk" {
				t.Fatalf("upload landed in tier %q, want disk", info.Tier)
			}
			if st := b.Stats(); st.TracePromotes != 0 {
				t.Fatalf("trace promoted before any lookup: %+v", st)
			}
		})
	check("disk tier stream", diskRes)
}

// TestDiskTierStore: write-through, small uploads kept in memory as
// they spool, promotion of small disk hits, per-tier listing/stats,
// and the streamed download.
func TestDiskTierStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := NewBatcher(BatchOptions{TraceStoreBytes: 1 << 20, TraceDir: dir})
	defer b.Close()

	rec, err := Record(ctx, RecordSpec{Workload: "li", Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := b.StoreTrace(rec)
	if err != nil {
		t.Fatal(err)
	}

	// Write-through: the digest-named file exists and the listing shows
	// both tiers.
	st := b.Stats()
	if st.TraceSpills != 1 || st.TraceDisk != 1 || st.TraceDiskBytes == 0 {
		t.Fatalf("after write-through: %+v", st)
	}
	infos := b.Traces()
	if len(infos) != 1 || infos[0].Tier != "memory+disk" || infos[0].DiskBytes == 0 {
		t.Fatalf("listing %+v", infos)
	}

	// The download serves the stored bytes; they reload to the digest.
	var buf bytes.Buffer
	n, ok, err := b.WriteTraceTo(digest, &buf)
	if !ok || err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTraceTo = %d, %v, %v", n, ok, err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != digest {
		t.Fatalf("download digest %s, want %s", back.Digest(), digest)
	}

	// A second Batcher over the same directory starts with an empty
	// store: uploading the same bytes is deduplicated against the
	// existing file (no second spill file write), and the small v4
	// upload enters the memory tier from the spool, so its replay
	// promotes nothing.
	b2 := NewBatcher(BatchOptions{TraceStoreBytes: 1 << 20, TraceDir: dir})
	defer b2.Close()
	info, err := b2.StoreTraceFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest || info.Tier != "memory+disk" {
		t.Fatalf("re-upload info %+v", info)
	}
	res, err := b2.Run(ctx, Request{Trace: TraceRef(digest), Study: &StudyConfig{Budget: 10_000, Window: 64}})
	if err != nil || res.Err != nil {
		t.Fatalf("uploaded replay: %v / %v", err, res.Err)
	}
	st2 := b2.Stats()
	if st2.TracePromotes != 0 {
		t.Errorf("replay of a kept upload promoted: %+v", st2)
	}
	if got := b2.Traces(); len(got) != 1 || got[0].Tier != "memory+disk" {
		t.Errorf("post-replay listing %+v", got)
	}

	// A restarted store over the same directory rehydrates its disk
	// index: the digest resolves with no re-upload at all, and the
	// small disk-only trace is promoted into memory on first replay.
	b3 := NewBatcher(BatchOptions{TraceStoreBytes: 1 << 20, TraceDir: dir})
	defer b3.Close()
	if got := b3.Traces(); len(got) != 1 || got[0].Digest != digest || got[0].Tier != "disk" ||
		got[0].Records != rec.Records() {
		t.Fatalf("rehydrated listing %+v", got)
	}
	res3, err := b3.Run(ctx, Request{Trace: TraceRef(digest), Study: &StudyConfig{Budget: 10_000, Window: 64}})
	if err != nil || res3.Err != nil {
		t.Fatalf("rehydrated replay: %v / %v", err, res3.Err)
	}
	if !reflect.DeepEqual(*res.Study, *res3.Study) {
		t.Error("rehydrated replay differs from the original store's")
	}
	if st3 := b3.Stats(); st3.TracePromotes != 1 {
		t.Errorf("small disk hit not promoted: %+v", st3)
	}
	if got := b3.Traces(); len(got) != 1 || got[0].Tier != "memory+disk" {
		t.Errorf("post-promotion listing %+v", got)
	}
}

// TestCachedTraceRefLoadsNothing: a repeat request on a disk-only
// trace is answered from the result cache by its key alone.  The key
// is built from the store's index, so the repeat neither promotes the
// trace nor counts a lookup of it, and it is still answered after the
// trace's file has been renamed away.
func TestCachedTraceRefLoadsNothing(t *testing.T) {
	ctx := context.Background()
	record := func(w string) *Trace {
		rec, err := Record(ctx, RecordSpec{Workload: w, Budget: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	var body bytes.Buffer
	if _, err := record("compress").WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	// The promote bound (an eighth of the memory tier) admits the file
	// but not its payload: the upload stays disk-only, and the first
	// replay promotes it.
	dir := t.TempDir()
	b := NewBatcher(BatchOptions{TraceStoreBytes: 8 * int64(body.Len()), TraceDir: dir})
	defer b.Close()
	info, err := b.StoreTraceFrom(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Tier != "disk" {
		t.Fatalf("upload landed in tier %q, want disk", info.Tier)
	}
	tier := func() string {
		for _, ti := range b.Traces() {
			if ti.Digest == info.Digest {
				return ti.Tier
			}
		}
		return ""
	}
	req := Request{Trace: TraceRef(info.Digest), Analyze: &AnalyzeConfig{}}
	first, err := b.Run(ctx, req)
	if err != nil || first.Err != nil || first.Cached {
		t.Fatalf("first run: %v / %v (cached %v)", err, first.Err, first.Cached)
	}
	if st := b.Stats(); st.TracePromotes != 1 || tier() != "memory+disk" {
		t.Fatalf("first run: %d promotes, tier %q", st.TracePromotes, tier())
	}
	// Two more recordings evict it from the memory tier again.
	for _, w := range []string{"li", "gcc"} {
		if _, err := b.StoreTrace(record(w)); err != nil {
			t.Fatal(err)
		}
	}
	if tier() != "disk" {
		t.Fatalf("trace still in tier %q after eviction", tier())
	}

	before := b.Stats()
	again, err := b.Run(ctx, req)
	if err != nil || again.Err != nil || !again.Cached {
		t.Fatalf("repeat: %v / %v (cached %v)", err, again.Err, again.Cached)
	}
	if !reflect.DeepEqual(first.Analyze, again.Analyze) {
		t.Fatal("repeat answered differently")
	}
	if st := b.Stats(); st.TracePromotes != before.TracePromotes || st.TraceHits != before.TraceHits {
		t.Fatalf("cached repeat promoted %d and looked up %d times",
			st.TracePromotes-before.TracePromotes, st.TraceHits-before.TraceHits)
	}

	path := filepath.Join(dir, tracefile.DigestFileName(info.Digest))
	if err := os.Rename(path, path+".moved"); err != nil {
		t.Fatal(err)
	}
	third, err := b.Run(ctx, req)
	if err != nil || third.Err != nil || !third.Cached {
		t.Fatalf("repeat after the file moved: %v / %v (cached %v)", err, third.Err, third.Cached)
	}
}

// TestCachedTraceRefStaysResident: without a disk tier, eviction loses
// a trace.  A trace whose requests are answered from the result cache
// is still in use, so those requests keep it at the front of the memory
// tier's LRU: after a newer upload fills the tier, the store evicts the
// other trace, and the next uncached request on it still runs.
func TestCachedTraceRefStaysResident(t *testing.T) {
	ctx := context.Background()
	record := func(w string) *Trace {
		rec, err := Record(ctx, RecordSpec{Workload: w, Budget: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, bt, c := record("compress"), record("li"), record("gcc")
	// Room for a with either of the others, not for all three.
	capBytes := int64(a.Size() + max(bt.Size(), c.Size()))
	b := NewBatcher(BatchOptions{TraceStoreBytes: capBytes})
	defer b.Close()
	store := func(tr *Trace) {
		if _, err := b.StoreTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	store(a)
	req := Request{Trace: TraceRef(a.Digest()), Analyze: &AnalyzeConfig{}}
	if res, err := b.Run(ctx, req); err != nil || res.Err != nil || res.Cached {
		t.Fatalf("first run: %v / %v", err, res.Err)
	}
	store(bt)
	for i := 0; i < 3; i++ {
		res, err := b.Run(ctx, req)
		if err != nil || res.Err != nil || !res.Cached {
			t.Fatalf("repeat %d: %v / %v (cached %v)", i, err, res.Err, res.Cached)
		}
	}
	store(c)
	if !b.HasTrace(a.Digest()) || b.HasTrace(bt.Digest()) {
		t.Fatalf("after the third upload: a held %v, b held %v", b.HasTrace(a.Digest()), b.HasTrace(bt.Digest()))
	}
	res, err := b.Run(ctx, Request{Trace: TraceRef(a.Digest()), Study: &StudyConfig{Budget: 3000, Window: 64}})
	if err != nil || res.Err != nil || res.Cached {
		t.Fatalf("uncached run after the third upload: %v / %v (cached %v)", err, res.Err, res.Cached)
	}
}

// TestSwappedDiskFileFailsJob: with a memory tier too small to promote,
// a trace-ref job replays the disk tier's file as a stream.  When the
// file of a 3,000-record trace has been swapped for the container of a
// 3,001-record one, the job ends in an error instead of a result over
// the other trace's records.
func TestSwappedDiskFileFailsJob(t *testing.T) {
	ctx := context.Background()
	container := func(budget uint64) []byte {
		rec, err := Record(ctx, RecordSpec{Workload: "compress", Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dir := t.TempDir()
	b := NewBatcher(BatchOptions{TraceStoreBytes: 4096, TraceDir: dir})
	defer b.Close()
	info, err := b.StoreTraceFrom(bytes.NewReader(container(3000)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tracefile.DigestFileName(info.Digest))
	if err := os.WriteFile(path, container(3001), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Trace: TraceRef(info.Digest), Analyze: &AnalyzeConfig{}},
		{Trace: TraceRef(info.Digest), Study: &StudyConfig{Budget: 3000, Window: 64}},
	} {
		res, err := b.Run(ctx, req)
		if err == nil && res.Err == nil {
			t.Fatalf("%s job over a swapped file finished with a result", res.Kind)
		}
	}
	if st := b.Stats(); st.TracePromotes != 0 {
		t.Fatalf("tiny memory tier promoted: %+v", st)
	}
}

// TestTraceDrivenDDA: the Study kind's DDA path (ILPWindows) is
// trace-driven — execution-driven and replayed DDA are byte-identical
// — and the points are self-consistent.
func TestTraceDrivenDDA(t *testing.T) {
	const budget = 25_000
	ctx := context.Background()
	rec, err := Record(ctx, RecordSpec{Workload: "compress", Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &StudyConfig{Budget: budget, Window: 256, ILPWindows: []int{16, 256, 0}}

	b := NewBatcher(BatchOptions{})
	defer b.Close()
	live, err := b.Run(ctx, Request{Workload: "compress", Study: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Study.DDA) != 3 {
		t.Fatalf("DDA points: %+v", live.Study.DDA)
	}
	for i, p := range live.Study.DDA {
		if p.Window != cfg.ILPWindows[i] || p.Instructions != budget || p.IPC <= 0 || p.Cycles <= 0 {
			t.Errorf("DDA[%d] = %+v", i, p)
		}
	}
	// A wider window can only help: IPC(16) <= IPC(256) <= IPC(inf).
	if live.Study.DDA[0].IPC > live.Study.DDA[1].IPC || live.Study.DDA[1].IPC > live.Study.DDA[2].IPC {
		t.Errorf("IPC not monotone in window size: %+v", live.Study.DDA)
	}

	// Replayed DDA on a cold Batcher must reproduce execution exactly.
	cold := NewBatcher(BatchOptions{})
	defer cold.Close()
	replayed, err := cold.Run(ctx, Request{Trace: rec, Study: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cached {
		t.Fatal("cold replay unexpectedly cached")
	}
	if !reflect.DeepEqual(*live.Study, *replayed.Study) {
		t.Errorf("trace-driven DDA differs from execution-driven:\nlive   %+v\nreplay %+v",
			*live.Study, *replayed.Study)
	}

	// And on a shared Batcher it hits the program-backed cache entry
	// (ILPWindows is part of the key: the plain study must not collide).
	shared, err := b.Run(ctx, Request{Trace: rec, Study: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Cached {
		t.Error("trace-backed DDA study missed the program-backed cache entry")
	}
	plain, err := b.Run(ctx, Request{Workload: "compress", Study: &StudyConfig{Budget: budget, Window: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cached {
		t.Error("study without ILPWindows shared the ILPWindows entry: cache key ignores ILPWindows")
	}
	if plain.Study.DDA != nil {
		t.Errorf("plain study carries DDA points: %+v", plain.Study.DDA)
	}
}

// TestCompositeIdentityDistinct: every source shape yields a distinct,
// non-empty cache identity — in particular a Concat over composite
// children (which have no digest of their own) must not collapse to
// one shared key across different programs.
func TestCompositeIdentityDistinct(t *testing.T) {
	ctx := context.Background()
	recA, err := Record(ctx, RecordSpec{Workload: "compress", Budget: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	recB, err := Record(ctx, RecordSpec{Workload: "li", Budget: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	idOf := func(src TraceSource) string {
		t.Helper()
		d, err := src.describe(nil)
		if err != nil {
			t.Fatal(err)
		}
		id := d.identity()
		if id == "" {
			t.Fatalf("%T yields an empty cache identity", src)
		}
		return id
	}
	a := idOf(Concat(Concat(recA)))
	b := idOf(Concat(Concat(recB)))
	if a == b {
		t.Fatalf("different streams share cache identity %q", a)
	}
	if x, y := idOf(Concat(recA)), idOf(Concat(recB)); x == y {
		t.Fatalf("different streams share cache identity %q", x)
	}
}
