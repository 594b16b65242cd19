package tracefile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// drainStream collects every record a trace.Stream delivers.
func drainStream(t *testing.T, s trace.Stream) []trace.Exec {
	t.Helper()
	var out []trace.Exec
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			out = append(out, normalize(batch[i]))
		}
	}
}

// TestFileStreamMatchesCursor: the incrementally decoded stream of any
// container version yields exactly the records the in-memory Cursor
// yields — the streamed-replay-equivalence contract at the record
// level.
func TestFileStreamMatchesCursor(t *testing.T) {
	tr := loadFixture(t, "li4200", Version4)
	var want []trace.Exec
	cur := tr.Cursor()
	defer cur.Close()
	var e trace.Exec
	for {
		if err := cur.Next(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		want = append(want, normalize(e))
	}

	for _, version := range allVersions {
		data := readFixture(t, "li4200", version)
		s, err := NewFileStream(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		got := drainStream(t, s)
		s.Close()
		if len(got) != len(want) {
			t.Fatalf("v%d: stream yields %d records, cursor %d", version, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("v%d: record %d differs:\nstream %+v\ncursor %+v", version, i, got[i], want[i])
			}
		}

		// Skip mid-stream, across the first block boundary, lands on the
		// same records.
		s2, err := NewFileStream(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		const skip = BlockLen + 3
		if n, err := s2.Skip(skip); err != nil || n != skip {
			t.Fatalf("v%d: Skip = %d, %v", version, n, err)
		}
		tail := drainStream(t, s2)
		s2.Close()
		if !reflect.DeepEqual(tail, want[skip:]) {
			t.Fatalf("v%d: post-skip stream diverges", version)
		}
	}
}

// TestScanMatchesLoad: the incremental one-pass scan computes the same
// digest, count and canonical size as a full Load, for every container
// version, and rejects a tampered header.
func TestScanMatchesLoad(t *testing.T) {
	for _, version := range allVersions {
		data := readFixture(t, "li4200", version)
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		info, err := Scan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if info.Digest != tr.Digest() || info.Records != tr.Records() ||
			info.CanonicalBytes != int64(tr.CanonicalBytes()) || info.Version != version {
			t.Fatalf("v%d: scan %+v vs trace %s/%d/%d", version, info, tr.Digest(), tr.Records(), tr.CanonicalBytes())
		}
	}

	// A lying digest in an indexed header must be rejected.
	data := readFixture(t, "li4200", Version2)
	data[12+8] ^= 0xff // first digest byte
	if _, err := Scan(bytes.NewReader(data)); err == nil {
		t.Fatal("tampered digest passed Scan")
	}
}

// TestSpoolToDir: both install paths — a v4 upload renamed into place
// and a v1/v2/v3 upload transcoded in O(batch) memory — produce a
// digest-named v4 file that loads back identically, and re-uploading
// is a no-op.  A v4 upload within the keep bound also comes back as
// the Trace Load gives; older versions, and a bound one byte short of
// the payload, keep nothing.
func TestSpoolToDir(t *testing.T) {
	tr := loadFixture(t, "li4200", Version4)
	for _, version := range allVersions {
		dir := t.TempDir()
		data := readFixture(t, "li4200", version)
		info, kept, err := SpoolToDir(bytes.NewReader(data), dir, int64(tr.Bytes()))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if version != Version4 {
			if kept != nil {
				t.Fatalf("v%d: upload kept in memory", version)
			}
		} else if kept == nil || kept.Digest() != tr.Digest() || !bytes.Equal(kept.enc, tr.enc) {
			t.Fatalf("v%d: kept trace %v differs from Load's", version, kept)
		}
		if info.Digest != tr.Digest() || info.Records != tr.Records() {
			t.Fatalf("v%d: spool info %+v", version, info)
		}
		if info.Path != filepath.Join(dir, DigestFileName(tr.Digest())) {
			t.Fatalf("v%d: installed at %s", version, info.Path)
		}
		back, err := OpenFile(info.Path)
		if err != nil {
			t.Fatalf("v%d: reloading spooled file: %v", version, err)
		}
		if back.Digest() != tr.Digest() || back.Records() != tr.Records() {
			t.Fatalf("v%d: spooled file loads as %s/%d", version, back.Digest(), back.Records())
		}
		// The installed container must itself be version 4.
		f, err := os.Open(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Version() != Version4 {
			t.Fatalf("v%d input installed as v%d container", version, rd.Version())
		}
		f.Close()

		// Idempotent re-upload.
		again, kept, err := SpoolToDir(bytes.NewReader(data), dir, int64(tr.Bytes())-1)
		if err != nil {
			t.Fatal(err)
		}
		if kept != nil {
			t.Fatalf("v%d: payload over the keep bound kept", version)
		}
		if again != info {
			t.Fatalf("re-upload changed info: %+v vs %+v", again, info)
		}
		// No temp files left behind.
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Fatalf("store dir holds %d entries, want only the installed file", len(ents))
		}
	}

	// A corrupt upload installs nothing and leaves no temp files.
	dir := t.TempDir()
	data := readFixture(t, "li4200", Version4)
	data[len(data)-1] ^= 0xff
	if _, _, err := SpoolToDir(bytes.NewReader(data), dir, int64(len(data))<<4); err == nil {
		t.Fatal("corrupt upload accepted")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed upload left %d entries behind", len(ents))
	}
}

// TestSpoolInfoOpenChecksHeader: a store entry opens its file as a
// stream only while the file's header declares the entry's digest,
// record count and canonical size; another trace's container put under
// its name, or an entry that disagrees in any one field, fails the
// open.
func TestSpoolInfoOpenChecksHeader(t *testing.T) {
	dir := t.TempDir()
	info, _, err := SpoolToDir(bytes.NewReader(readFixture(t, "li4200", Version4)), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := info.Open()
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s); uint64(len(got)) != info.Records {
		t.Fatalf("stream replayed %d records, entry holds %d", len(got), info.Records)
	}
	s.Close()

	for name, e := range map[string]SpoolInfo{
		"digest":    {Digest: DigestPrefix + "00", Records: info.Records, CanonicalBytes: info.CanonicalBytes, Path: info.Path},
		"records":   {Digest: info.Digest, Records: info.Records + 1, CanonicalBytes: info.CanonicalBytes, Path: info.Path},
		"canonical": {Digest: info.Digest, Records: info.Records, CanonicalBytes: info.CanonicalBytes - 1, Path: info.Path},
	} {
		if s, err := e.Open(); err == nil {
			s.Close()
			t.Errorf("%s: an entry that disagrees with the header opened", name)
		}
	}

	if err := os.WriteFile(info.Path, readFixture(t, "example", Version4), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := info.Open(); err == nil {
		s.Close()
		t.Fatal("a swapped file opened under the entry's digest")
	}
}

// TestSaveAtomic: Save never leaves a truncated file at the target
// path — a failure mid-write preserves the previous contents and
// cleans up its temp file.
func TestSaveAtomic(t *testing.T) {
	tr := recordWorkload(t, "li", 2_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.trc")

	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(orig)); err != nil {
		t.Fatalf("saved file does not load: %v", err)
	}

	// Simulate a mid-write failure through the same atomic-write helper
	// Save uses: the target must be untouched and the temp removed.
	boom := errors.New("disk full")
	err = writeFileRenamed(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected write failure", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Fatal("failed save clobbered the existing file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed save left %d entries (temp file not cleaned up?)", len(ents))
	}
}

// TestFileStreamConstantAllocs: replaying a trace four times as long
// must not allocate proportionally more — streamed replay memory is
// O(batch), not O(records).  The decoder's own loop is allocation-free;
// the only marginal allocations are compress/flate's per-deflate-block
// Huffman tables — transient, a handful per 16K-token deflate block,
// which over the v4 plane payload (~5-6 uncompressed bytes per record)
// works out to roughly one allocation per ~180 records — so the gate is
// a marginal rate, not an absolute count.  (The CI-gated byte-level
// version of this check lives in replaybench.MeasureStreamMemory; the
// Huffman tables are well under a byte per record there.)
func TestFileStreamConstantAllocs(t *testing.T) {
	const smallN, largeN = 20_000, 80_000
	small := recordWorkload(t, "compress", smallN)
	large := recordWorkload(t, "compress", largeN)
	dir := t.TempDir()
	smallPath := filepath.Join(dir, "small.trc")
	largePath := filepath.Join(dir, "large.trc")
	if err := small.Save(smallPath); err != nil {
		t.Fatal(err)
	}
	if err := large.Save(largePath); err != nil {
		t.Fatal(err)
	}
	replay := func(path string) func() {
		return func() {
			s, err := OpenFileStream(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for {
				if _, err := s.NextBatch(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	smallAllocs := testing.AllocsPerRun(5, replay(smallPath))
	largeAllocs := testing.AllocsPerRun(5, replay(largePath))
	if margin := float64(largeN-smallN)/120 + 8; largeAllocs > smallAllocs+margin {
		t.Errorf("replaying 4x the records costs %.0f allocs vs %.0f (allowed margin %.0f): not O(batch)",
			largeAllocs, smallAllocs, margin)
	}
}
