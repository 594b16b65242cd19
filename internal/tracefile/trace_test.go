package tracefile

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// recordWorkload records n instructions of a workload into a Trace.
func recordWorkload(t testing.TB, name string, n uint64) *Trace {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	if _, err := cpu.New(prog).Run(n, rec.Write); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// execWorkload runs n instructions of a workload and returns their
// records, so recording can be timed or measured without the simulator.
func execWorkload(t testing.TB, name string, n uint64) []trace.Exec {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Exec, 0, n)
	if _, err := cpu.New(prog).Run(n, func(e *trace.Exec) { recs = append(recs, *e) }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// normalize zeroes the operand slots beyond NIn/NOut so two records can
// be compared structurally: only In[:NIn] and Out[:NOut] are
// meaningful, and decoders (like the simulator itself) leave stale
// bytes beyond them.
func normalize(e trace.Exec) trace.Exec {
	for i := int(e.NIn); i < len(e.In); i++ {
		e.In[i] = trace.Ref{}
	}
	for i := int(e.NOut); i < len(e.Out); i++ {
		e.Out[i] = trace.Ref{}
	}
	return e
}

// TestCursorMatchesExecution: decoding a recorded trace yields the exact
// record sequence the simulator produced.
func TestCursorMatchesExecution(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Exec
	rec := NewRecorder()
	if _, err := cpu.New(prog).Run(20_000, func(e *trace.Exec) {
		want = append(want, normalize(*e))
		rec.Write(e)
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr.Records() != uint64(len(want)) {
		t.Fatalf("trace holds %d records, recorded %d", tr.Records(), len(want))
	}
	if !strings.HasPrefix(tr.Digest(), DigestPrefix) || len(tr.Digest()) != len(DigestPrefix)+64 {
		t.Fatalf("malformed digest %q", tr.Digest())
	}
	if tr.Bytes() >= tr.CanonicalBytes() {
		t.Errorf("v3 encoding (%d bytes) is not smaller than canonical (%d bytes)",
			tr.Bytes(), tr.CanonicalBytes())
	}

	cur := tr.Cursor()
	defer cur.Close()
	var e trace.Exec
	for i := range want {
		if err := cur.Next(&e); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if normalize(e) != want[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, normalize(e), want[i])
		}
	}
	if err := cur.Next(&e); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
}

// TestCursorBatchMatchesNext: the batched iterator delivers exactly the
// per-record sequence, in block-sized runs.
func TestCursorBatchMatchesNext(t *testing.T) {
	tr := recordWorkload(t, "compress", 3*BlockLen+17)
	seq := tr.Cursor()
	defer seq.Close()
	bat := tr.Cursor()
	defer bat.Close()
	var n uint64
	for {
		batch, err := bat.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 || len(batch) > BlockLen {
			t.Fatalf("batch of %d records", len(batch))
		}
		for i := range batch {
			var e trace.Exec
			if err := seq.Next(&e); err != nil {
				t.Fatalf("record %d: %v", n, err)
			}
			if normalize(e) != normalize(batch[i]) {
				t.Fatalf("record %d diverged between Next and NextBatch", n)
			}
			n++
		}
	}
	if n != tr.Records() {
		t.Fatalf("batches delivered %d of %d records", n, tr.Records())
	}
}

// TestCursorSkip: Skip must land on the same record as sequential
// decoding, at distances below, at and above the block and index
// granularities, and report short skips at the end of the trace.
func TestCursorSkip(t *testing.T) {
	tr := recordWorkload(t, "compress", 3*IndexInterval/2)
	for _, skip := range []uint64{0, 1, 7, 100, BlockLen - 1, BlockLen, BlockLen + 1,
		IndexInterval - 1, IndexInterval, IndexInterval + 1, tr.Records() - 1} {
		seq := tr.Cursor()
		for i := uint64(0); i < skip; i++ {
			var e trace.Exec
			if err := seq.Next(&e); err != nil {
				t.Fatal(err)
			}
		}
		fast := tr.Cursor()
		n, err := fast.Skip(skip)
		if err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if n != skip {
			t.Fatalf("skip %d: skipped %d", skip, n)
		}
		var a, b trace.Exec
		errA, errB := seq.Next(&a), fast.Next(&b)
		if errA != errB || (errA == nil && normalize(a) != normalize(b)) {
			t.Fatalf("skip %d diverged from sequential: %v/%v vs %v/%v", skip, &a, errA, &b, errB)
		}
		seq.Close()
		fast.Close()
	}

	// Skipping past the end is a short skip, not an error.
	cur := tr.Cursor()
	defer cur.Close()
	n, err := cur.Skip(tr.Records() + 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Records() {
		t.Fatalf("short skip reported %d, want %d", n, tr.Records())
	}
	var e trace.Exec
	if err := cur.Next(&e); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestCursorRunBudgetAndCancel: Run delivers exactly max records, stops
// cleanly at EOF, and honours cancellation.
func TestCursorRunBudgetAndCancel(t *testing.T) {
	tr := recordWorkload(t, "li", 10_000)
	n, err := tr.Cursor().Run(context.Background(), 5_000, nil)
	if err != nil || n != 5_000 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	n, err = tr.Cursor().Run(context.Background(), 50_000, nil)
	if err != nil || n != tr.Records() {
		t.Fatalf("Run past EOF = %d, %v (want %d, nil)", n, err, tr.Records())
	}
	// A budget that ends mid-block must not deliver the block's tail,
	// and the handed-back tail must still be readable.
	cur := tr.Cursor()
	defer cur.Close()
	n, err = cur.Run(context.Background(), BlockLen+10, nil)
	if err != nil || n != BlockLen+10 {
		t.Fatalf("mid-block Run = %d, %v", n, err)
	}
	if cur.Pos() != BlockLen+10 {
		t.Fatalf("Pos after mid-block Run = %d", cur.Pos())
	}
	var e trace.Exec
	if err := cur.Next(&e); err != nil {
		t.Fatalf("reading the handed-back tail: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Cursor().Run(ctx, 5_000, nil); err != context.Canceled {
		t.Fatalf("cancelled Run: err = %v", err)
	}
}

// TestCrossVersionIdentical: one stream frozen in all four container
// versions decodes record-identically and digest-identically in all
// four, and the version-4 container written today beats the canonical
// ones at rest.
func TestCrossVersionIdentical(t *testing.T) {
	ref := loadFixture(t, "li4200", Version)
	for _, version := range allVersions {
		data := readFixture(t, "li4200", version)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d header: %v", version, err)
		}
		if r.Version() != version {
			t.Fatalf("v%d fixture read as v%d", version, r.Version())
		}
		loaded := loadFixture(t, "li4200", version)
		if loaded.Digest() != ref.Digest() {
			t.Errorf("v%d digest %s, v1 %s", version, loaded.Digest(), ref.Digest())
		}
		if loaded.Records() != ref.Records() {
			t.Errorf("v%d holds %d records, v1 %d", version, loaded.Records(), ref.Records())
		}
		if loaded.CanonicalBytes() != ref.CanonicalBytes() {
			t.Errorf("v%d canonical %d bytes, v1 %d", version, loaded.CanonicalBytes(), ref.CanonicalBytes())
		}
		// Record-for-record equality, not just the digest's word for it.
		a, b := ref.Cursor(), loaded.Cursor()
		var ea, eb trace.Exec
		for i := uint64(0); i < ref.Records(); i++ {
			if err := a.Next(&ea); err != nil {
				t.Fatal(err)
			}
			if err := b.Next(&eb); err != nil {
				t.Fatal(err)
			}
			if normalize(ea) != normalize(eb) {
				t.Fatalf("v%d record %d differs from v1", version, i)
			}
		}
		a.Close()
		b.Close()
	}

	// The version-4 container must beat the canonical ones by a wide
	// margin.
	var v4 bytes.Buffer
	if _, err := ref.WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{Version, Version2} {
		if n := len(readFixture(t, "li4200", version)); 2*v4.Len() >= n {
			t.Errorf("v4 container (%d bytes) not under half the v%d one (%d)", v4.Len(), version, n)
		}
	}
}

// TestWriteToCountsBytes: WriteTo's returned length is the number of
// bytes actually written.
func TestWriteToCountsBytes(t *testing.T) {
	tr := recordWorkload(t, "li", 2_000)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}

// TestLoadRejectsCorruption: flipping or truncating bytes of a
// version-3 file — in the header or inside the compressed frame — must
// be caught (decode error, frame error, or digest mismatch), never
// silently accepted.
func TestLoadRejectsCorruption(t *testing.T) {
	tr := recordWorkload(t, "li", 2_000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a spread of positions past the magic+version
	// prelude: the declared-count/digest header, the dictionary, and
	// several points inside the compressed frame.
	for _, at := range []int{12, 20, 44, 60, 80, buf.Len() / 2, buf.Len() - 1} {
		if at >= buf.Len() {
			continue
		}
		mut := append([]byte(nil), buf.Bytes()...)
		mut[at] ^= 0x40
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Errorf("corruption at byte %d went undetected", at)
		}
	}
	// Truncation anywhere — header, frame, or mid-final-block — must be
	// detected too.
	for _, keep := range []int{buf.Len() - 3, buf.Len() / 2, 30, 13} {
		if _, err := Load(bytes.NewReader(buf.Bytes()[:keep])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", keep)
		}
	}
	// So must container bytes appended after the compressed frame:
	// nothing may hide past the declared payload.
	grown := append(append([]byte(nil), buf.Bytes()...), "extra"...)
	if _, err := Load(bytes.NewReader(grown)); err == nil {
		t.Error("trailing garbage after the compressed frame went undetected")
	}
}

// TestV3DecompressionBombRejected: a crafted v3 file whose tiny
// compressed frame inflates to a huge payload of minimal records must
// be rejected by the expansion bound while inflating, not after.
func TestV3DecompressionBombRejected(t *testing.T) {
	// A hyper-redundant stream: millions of identical minimal records
	// (op with no operands, implied latency, sequential PC and next)
	// compresses at roughly 1000:1, far past any legitimate trace.
	rec := NewRecorder()
	var e trace.Exec
	e.Op, e.Lat = isa.NOP, isa.InfoOf(isa.NOP).Latency
	const n = 1 << 20 // ~3 MiB v3 payload, a few KiB compressed
	for i := uint64(0); i < n; i++ {
		e.PC, e.Next = i+1, i+2
		rec.Write(&e)
	}
	tr := rec.Trace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1<<20 {
		t.Fatalf("bomb did not compress as expected: %d bytes", buf.Len())
	}
	_, err := Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("decompression bomb accepted")
	}
	if !strings.Contains(err.Error(), "decompression bomb") {
		t.Errorf("rejected for the wrong reason: %v", err)
	}
}

// TestV3TruncationCarriesRecordContext: a compressed frame cut short
// mid-stream surfaces as an ErrUnexpectedEOF-class decode error naming
// the failing record and its payload offset.
func TestV3TruncationCarriesRecordContext(t *testing.T) {
	tr := recordWorkload(t, "li", 2_000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if err == nil {
		t.Fatal("truncated compressed frame went undetected")
	}
	if !strings.Contains(err.Error(), "record ") || !strings.Contains(err.Error(), "offset ") {
		t.Errorf("truncation error %q carries no record index/offset", err)
	}
}

// TestV3EscapesAndColdLocations: a stream touching more distinct
// locations than the dictionary holds (forcing escape encoding), with
// large values, large deltas and an explicit (non-architectural)
// latency, still round-trips digest- and record-identically.
func TestV3EscapesAndColdLocations(t *testing.T) {
	rec := NewRecorder()
	var want []trace.Exec
	var e trace.Exec
	for i := 0; i < 3*DictCap; i++ {
		e.Reset()
		e.Op, e.Lat = isa.ST, isa.InfoOf(isa.ST).Latency
		if i%7 == 0 {
			e.Lat = 99 // not the architectural latency: the lat byte must survive
		}
		e.PC = uint64(i * 13)
		e.Next = e.PC + uint64(i%3)
		e.AddIn(trace.IntReg(uint8(i%8)), uint64(i)*0x123456789)
		e.AddIn(trace.Mem(uint64(i)*64), 1<<60+uint64(i))
		e.AddOut(trace.Mem(uint64(i)*64+1), uint64(i))
		want = append(want, normalize(e))
		rec.Write(&e)
	}
	tr := rec.Trace()
	if tr.DictLen() != DictCap {
		t.Fatalf("dictionary holds %d entries, want the %d cap", tr.DictLen(), DictCap)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != tr.Digest() {
		t.Fatalf("digest changed across the v3 round trip: %s vs %s", loaded.Digest(), tr.Digest())
	}
	cur := loaded.Cursor()
	defer cur.Close()
	for i := range want {
		var got trace.Exec
		if err := cur.Next(&got); err != nil {
			t.Fatal(err)
		}
		if normalize(got) != want[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, normalize(got), want[i])
		}
	}
}

// TestEmptyTraceRoundTrip: a zero-record recording is a valid trace in
// every container version.
func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := NewRecorder().Trace()
	if tr.Records() != 0 || tr.Bytes() != 0 {
		t.Fatalf("empty trace holds %d records / %d bytes", tr.Records(), tr.Bytes())
	}
	var e trace.Exec
	if err := tr.Cursor().Next(&e); err != io.EOF {
		t.Fatalf("empty cursor: err = %v, want io.EOF", err)
	}
	for _, version := range allVersions {
		loaded := loadFixture(t, "empty", version)
		if loaded.Records() != 0 || loaded.Digest() != tr.Digest() {
			t.Fatalf("empty v%d: %d records, digest %s", version, loaded.Records(), loaded.Digest())
		}
	}
}

// TestReaderErrorsCarryOffset: decode errors must name the record index
// and its byte offset.
func TestReaderErrorsCarryOffset(t *testing.T) {
	data := readFixture(t, "example", Version)
	good := len(data)
	data = append(data, flagSeqNext, 250, 1, 5) // record 4: undefined op at offset `good`

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	err = r.ForEach(func(*trace.Exec) bool { return true })
	if err == nil {
		t.Fatal("undefined op not rejected")
	}
	want := "record 4 (offset " + strconv.Itoa(good) + ")"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not carry %q", err, want)
	}
}

// TestRecordAllocBound bounds what recording allocates per record,
// relative to what the finished trace is made of: the canonical bytes
// the Recorder keeps until Trace, plus the v4 encoding.  Chunks sized
// from their predecessor, one copy of each encoded block and one
// exactly-sized assembly come to 1.6-1.8 times that on these windows;
// growing one whole-trace buffer, or an encoding from a guessed size,
// pays for every doubling again (4.2-4.5 times).  Each encoding
// goroutine also holds one block's planes, so the count is pinned.
func TestRecordAllocBound(t *testing.T) {
	const bound = 2.25
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, name := range []string{"gcc", "tomcatv"} {
		recs := execWorkload(t, name, 200_000)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec := NewRecorder()
		for i := range recs {
			rec.Write(&recs[i])
		}
		tr := rec.Trace()
		runtime.ReadMemStats(&m1)
		got, size := m1.TotalAlloc-m0.TotalAlloc, tr.CanonicalBytes()+tr.Bytes()
		if ratio := float64(got) / float64(size); ratio > bound {
			t.Errorf("%s: recording %d records allocated %d B (%.1f B/record), %.2f times the %d canonical + %d v4 bytes; want <= %.2f",
				name, len(recs), got, float64(got)/float64(len(recs)), ratio, tr.CanonicalBytes(), tr.Bytes(), bound)
		}
	}
}
