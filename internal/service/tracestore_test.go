package service

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/tracereuse/tlr/internal/tracefile"
)

// replayCount drains one stream of h and returns how many records it
// delivered.
func replayCount(t *testing.T, h TraceHandle) uint64 {
	t.Helper()
	st, err := h.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n uint64
	for {
		batch, err := st.NextBatch()
		if err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		n += uint64(len(batch))
	}
}

// TestUploadTiers: the disk tier's upload policy.  A version-4 upload
// whose payload fits the promote bound enters both tiers from the one
// pass that spools it, so its first lookup promotes nothing; one a byte
// over the bound, and an older container version at any size, stays
// disk-only until its first lookup promotes it (its file is within the
// bound).  Neither the index lookup a job is keyed from (TraceRecords)
// nor an upload counts a trace hit.
func TestUploadTiers(t *testing.T) {
	tr := recordTestTrace(t, "compress", 3000)
	v2, err := os.ReadFile(filepath.Join("..", "tracefile", "testdata", "li4200.v2.trc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		body     []byte
		capBytes int64
		tier     string
		traces   int
		promotes uint64
	}{
		{"v4 within the bound", traceBytes(t, tr), 0, "memory+disk", 1, 0},
		{"v4 over the bound", traceBytes(t, tr), 8 * int64(tr.Bytes()-1), "disk", 0, 1},
		{"v2 within the bound", v2, 0, "disk", 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{Workers: 1, TraceDir: t.TempDir(), TraceCacheBytes: c.capBytes})
			defer s.Close()
			info, err := s.AddTraceStream(bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if info.Tier != c.tier {
				t.Fatalf("upload listed as %q, want %q", info.Tier, c.tier)
			}
			if n, ok := s.TraceRecords(info.Digest); !ok || n != info.Records {
				t.Fatalf("TraceRecords = %d, %v; want %d", n, ok, info.Records)
			}
			st := s.Stats()
			if st.Traces != c.traces || st.TraceDisk != 1 || st.TraceHits != 0 {
				t.Fatalf("after upload and index lookup: %+v", st)
			}
			h, ok := s.ResolveTrace(info.Digest)
			if !ok {
				t.Fatal("uploaded digest did not resolve")
			}
			if got := replayCount(t, h); got != info.Records {
				t.Fatalf("replayed %d records, upload holds %d", got, info.Records)
			}
			st = s.Stats()
			if st.TraceHits != 1 || st.TracePromotes != c.promotes {
				t.Errorf("one lookup counted %d hits and %d promotes, want 1 and %d",
					st.TraceHits, st.TracePromotes, c.promotes)
			}
		})
	}
}

// TestTraceRecordsFetchesFromPeer: the index lookup a job is keyed
// from asks the peers only when neither local tier knows the digest,
// installs what a peer holds (a small v4 body straight into memory),
// and counts no hit; a digest no one holds counts one miss.
func TestTraceRecordsFetchesFromPeer(t *testing.T) {
	remote := recordTestTrace(t, "gcc", 3000)
	peer := &fakePeerFetch{blobs: map[string][]byte{remote.Digest(): traceBytes(t, remote)}}
	s := New(Options{Workers: 1, TraceDir: t.TempDir(), PeerFetch: peer.fetch})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if n, ok := s.TraceRecords(remote.Digest()); !ok || n != remote.Records() {
			t.Fatalf("lookup %d: %d, %v; want %d", i, n, ok, remote.Records())
		}
	}
	if got := peer.calls.Load(); got != 1 {
		t.Fatalf("peer consulted %d times, want 1", got)
	}
	st := s.Stats()
	if st.TraceHits != 0 || st.TraceMisses != 0 || st.TracePeerFetches != 1 || st.Traces != 1 || st.TraceDisk != 1 {
		t.Fatalf("after the fetch: %+v", st)
	}
	if _, ok := s.TraceRecords(tracefile.DigestPrefix + "00"); ok {
		t.Fatal("unknown digest found")
	}
	if st := s.Stats(); st.TraceMisses != 1 || st.TraceHits != 0 {
		t.Fatalf("after a miss: %+v", st)
	}
}

// TestRejectedUploadHoldsNothing: a body the spool rejects — truncated,
// a payload byte flipped, or no container at all — leaves neither tier
// nor the directory holding anything, whether or not its declared
// payload fits the keep bound.
func TestRejectedUploadHoldsNothing(t *testing.T) {
	good := traceBytes(t, recordTestTrace(t, "compress", 3000))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)*3/4] ^= 0x20
	for name, body := range map[string][]byte{
		"truncated": good[:len(good)-7],
		"flipped":   flipped,
		"garbage":   []byte("not a trace container at all"),
	} {
		for _, capBytes := range []int64{0, 4096} {
			dir := t.TempDir()
			s := New(Options{Workers: 1, TraceDir: dir, TraceCacheBytes: capBytes})
			if _, err := s.AddTraceStream(bytes.NewReader(body)); err == nil {
				t.Fatalf("%s (cap %d): accepted", name, capBytes)
			}
			if got := s.Traces(); len(got) != 0 {
				t.Fatalf("%s (cap %d): stored %+v", name, capBytes, got)
			}
			if st := s.Stats(); st.Traces != 0 || st.TraceBytes != 0 || st.TraceDisk != 0 || st.TraceSpills != 0 {
				t.Fatalf("%s (cap %d): stats %+v", name, capBytes, st)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("%s (cap %d): directory holds %d entries (%v)", name, capBytes, len(ents), err)
			}
			s.Close()
		}
	}
}

// TestDiskStreamChecksHeader: with a memory tier too small to promote,
// a disk-tier trace replays only as a file stream, and a stream over a
// file swapped for another trace's container (3,001 records under a
// 3,000-record trace's name) fails to open instead of replaying the
// other trace.
func TestDiskStreamChecksHeader(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, TraceDir: dir, TraceCacheBytes: 4096})
	defer s.Close()
	tr := recordTestTrace(t, "compress", 3000)
	info, err := s.AddTraceStream(bytes.NewReader(traceBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	h, ok := s.ResolveTrace(info.Digest)
	if !ok {
		t.Fatal("disk-tier digest did not resolve")
	}
	if got := replayCount(t, h); got != 3000 {
		t.Fatalf("stream replayed %d records", got)
	}
	path := filepath.Join(dir, tracefile.DigestFileName(info.Digest))
	if err := os.WriteFile(path, traceBytes(t, recordTestTrace(t, "compress", 3001)), 0o644); err != nil {
		t.Fatal(err)
	}
	h, ok = s.ResolveTrace(info.Digest)
	if !ok {
		t.Fatal("disk-tier digest did not resolve")
	}
	if st, err := h.Open(); err == nil {
		st.Close()
		t.Fatal("swapped file opened as the stored digest")
	}
	if s.Stats().TracePromotes != 0 {
		t.Fatal("tiny memory tier promoted")
	}
}
