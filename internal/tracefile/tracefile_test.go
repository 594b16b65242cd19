package tracefile

import (
	"bytes"
	"errors"
	"io"
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
