package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

func roundTrip(t *testing.T, execs []trace.Exec) []trace.Exec {
	t.Helper()
	rec := NewRecorder()
	for i := range execs {
		rec.Write(&execs[i])
	}
	var buf bytes.Buffer
	if _, err := rec.Trace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Exec
	var e trace.Exec
	for {
		err := r.Read(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestRoundTripHandCrafted(t *testing.T) {
	var a, b, c trace.Exec
	a.PC, a.Next, a.Op, a.Lat = 5, 6, isa.ADD, 1
	a.AddIn(trace.IntReg(1), 11)
	a.AddIn(trace.IntReg(2), 22)
	a.AddOut(trace.IntReg(3), 33)

	b.PC, b.Next, b.Op, b.Lat = 6, 99, isa.JMP, 1 // non-sequential next
	c.PC, c.Next, c.Op, c.Lat = 99, 99, isa.HALT, 1
	c.SideEffect = true

	in := []trace.Exec{a, b, c}
	out := roundTrip(t, in)
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	for i := range in {
		if in[i].PC != out[i].PC || in[i].Next != out[i].Next || in[i].Op != out[i].Op ||
			in[i].Lat != out[i].Lat || in[i].SideEffect != out[i].SideEffect ||
			in[i].NIn != out[i].NIn || in[i].NOut != out[i].NOut {
			t.Errorf("record %d header mismatch: %+v vs %+v", i, in[i], out[i])
		}
		for k := 0; k < int(in[i].NIn); k++ {
			if in[i].In[k] != out[i].In[k] {
				t.Errorf("record %d input %d mismatch", i, k)
			}
		}
		for k := 0; k < int(in[i].NOut); k++ {
			if in[i].Out[k] != out[i].Out[k] {
				t.Errorf("record %d output %d mismatch", i, k)
			}
		}
	}
}

func TestRoundTripRealWorkloadStream(t *testing.T) {
	// Record a real stream and verify the replay is bit-identical.
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(prog)
	var recorded []trace.Exec
	rec := NewRecorder()
	if _, err := c.Run(20_000, func(e *trace.Exec) {
		recorded = append(recorded, *e)
		rec.Write(e)
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.Trace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Compactness: well under the ~100-byte in-memory footprint.
	if avg := float64(buf.Len()) / float64(len(recorded)); avg > 30 {
		t.Errorf("average record size %.1f bytes; expected compact encoding", avg)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := r.ForEach(func(e *trace.Exec) bool {
		want := &recorded[i]
		if e.PC != want.PC || e.Next != want.Next || e.Op != want.Op || e.NIn != want.NIn || e.NOut != want.NOut {
			t.Fatalf("record %d mismatch: %v vs %v", i, e, want)
		}
		for k := 0; k < int(e.NIn); k++ {
			if e.In[k] != want.In[k] {
				t.Fatalf("record %d input %d mismatch", i, k)
			}
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(recorded) {
		t.Fatalf("replayed %d of %d records", i, len(recorded))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE_AT_ALL"))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := NewReader(&buf); err == nil {
		t.Error("expected version error")
	}
}

func TestTruncatedStream(t *testing.T) {
	// The worked example's version-1 file: records of 6, 22, 10 and 9
	// bytes after the 12-byte prelude, record 1 carrying 9-byte varints.
	full := readFixture(t, "example", Version)
	ends := map[int]int{12: 0, 18: 1, 40: 2, 50: 3, 59: 4}

	// Cut the stream everywhere after the prelude: a cut between records
	// is a shorter valid version-1 stream, and every cut inside a record
	// must give ErrUnexpectedEOF, never a silent success.
	for cut := 13; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		err = r.ForEach(func(*trace.Exec) bool { return true })
		if want, boundary := ends[cut]; boundary {
			if err != nil || r.Records() != uint64(want) {
				t.Fatalf("cut %d at a record boundary: %d records, err %v", cut, r.Records(), err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestUndefinedOpRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.Write([]byte{1, 0, 0, 0}) // version 1
	buf.Write([]byte{flagSeqNext, 250, 1, 5})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var e trace.Exec
	if err := r.Read(&e); err == nil {
		t.Error("undefined op must be rejected")
	}
}

// canonicalContainer wraps recs' canonical encoding in a version-1 or
// version-2 container, the two that carry records as they are: the
// crafted-stream counterpart of the frozen fixtures.
func canonicalContainer(version uint32, recs []trace.Exec) []byte {
	var canon []byte
	for i := range recs {
		canon = appendRecord(canon, &recs[i])
	}
	out := append(Magic[:], byte(version), 0, 0, 0)
	if version == Version2 {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(recs)))
		sum := sha256.Sum256(canon)
		out = append(out, sum[:]...)
		nIndex := (len(recs) + IndexInterval - 1) / IndexInterval
		out = binary.LittleEndian.AppendUint32(out, IndexInterval)
		out = binary.LittleEndian.AppendUint32(out, uint32(nIndex))
		out = append(out, make([]byte, 8*nIndex)...)
	}
	return append(out, canon...)
}

// TestUndefinedLocationKindRejected: docs/FORMAT.md requires readers to
// reject the undefined location kind 3 (top bits 11).  A version-1 or
// -2 body whose middle record reads such a location is refused by the
// streaming Reader, Load, Scan and SpoolToDir (which leaves no file
// behind), and by CanonicalDecode; a Recorder fed the record panics
// when it finalises.
func TestUndefinedLocationKindRejected(t *testing.T) {
	recs := make([]trace.Exec, 3)
	for i := range recs {
		e := &recs[i]
		e.Op, e.Lat = isa.ADD, isa.InfoOf(isa.ADD).Latency
		e.PC, e.Next = uint64(i), uint64(i)+1
		e.AddIn(trace.IntReg(1), uint64(i))
	}
	recs[1].In[0].Loc = trace.Loc(3<<62 | 5)
	const want = "location 0xc000000000000005 has undefined kind"
	for _, version := range []uint32{Version, Version2} {
		data := canonicalContainer(version, recs)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ForEach(func(*trace.Exec) bool { return true }); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d: streaming read gives %v, want %q", version, err, want)
		}
		if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d: Load gives %v, want %q", version, err, want)
		}
		if _, err := Scan(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d: Scan gives %v, want %q", version, err, want)
		}
		for _, keepMax := range []int64{0, 1 << 20} {
			dir := t.TempDir()
			if _, _, err := SpoolToDir(bytes.NewReader(data), dir, keepMax); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("v%d: SpoolToDir gives %v, want %q", version, err, want)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Errorf("v%d: refused spool left %d entries (%v)", version, len(ents), err)
			}
		}
	}
	var canon []byte
	for i := range recs {
		canon = appendRecord(canon, &recs[i])
	}
	if n, err := CanonicalDecode(canon, nil); n != 1 || err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("CanonicalDecode gives %d records, %v; want 1 and %q", n, err, want)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("Recorder.Trace panics with %v, want %q", r, want)
		}
	}()
	rec := NewRecorder()
	for i := range recs {
		rec.Write(&recs[i])
	}
	rec.Trace()
}

func TestEmptyStream(t *testing.T) {
	r, err := NewReader(bytes.NewReader(readFixture(t, "empty", Version)))
	if err != nil {
		t.Fatal(err)
	}
	var e trace.Exec
	if err := r.Read(&e); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	r, err := NewReader(bytes.NewReader(readFixture(t, "example", Version)))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := r.ForEach(func(*trace.Exec) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ForEach visited %d, want 3", count)
	}
}
