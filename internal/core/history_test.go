package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

func mkExec(pc uint64, ins, outs []trace.Ref) trace.Exec {
	var e trace.Exec
	e.PC = pc
	e.Next = pc + 1
	e.Op = isa.ADD
	e.Lat = 1
	for _, r := range ins {
		e.AddIn(r.Loc, r.Val)
	}
	for _, r := range outs {
		e.AddOut(r.Loc, r.Val)
	}
	return e
}

func TestHistoryFirstSeenNotReusable(t *testing.T) {
	h := NewHistory()
	e := mkExec(1, []trace.Ref{{Loc: trace.IntReg(1), Val: 5}}, nil)
	if h.Observe(&e) {
		t.Error("first occurrence must not be reusable")
	}
	if !h.Observe(&e) {
		t.Error("second identical occurrence must be reusable")
	}
}

func TestHistoryDistinguishesValues(t *testing.T) {
	h := NewHistory()
	a := mkExec(1, []trace.Ref{{Loc: trace.IntReg(1), Val: 5}}, nil)
	b := mkExec(1, []trace.Ref{{Loc: trace.IntReg(1), Val: 6}}, nil)
	h.Observe(&a)
	if h.Observe(&b) {
		t.Error("different input value must not be reusable")
	}
	if !h.Observe(&b) {
		t.Error("b seen once now; must be reusable")
	}
	if h.tab.len() != 2 {
		t.Errorf("Vectors = %d, want 2", h.tab.len())
	}
}

func TestHistoryPerPC(t *testing.T) {
	h := NewHistory()
	a := mkExec(1, []trace.Ref{{Loc: trace.IntReg(1), Val: 5}}, nil)
	b := mkExec(2, []trace.Ref{{Loc: trace.IntReg(1), Val: 5}}, nil)
	h.Observe(&a)
	if h.Observe(&b) {
		t.Error("same inputs at a different PC must not be reusable")
	}
	if h.tab.len() != 2 {
		t.Errorf("%d input vectors stored, want one per PC", h.tab.len())
	}
}

func TestHistorySideEffectNeverReusable(t *testing.T) {
	h := NewHistory()
	var e trace.Exec
	e.PC, e.Op, e.SideEffect = 3, isa.OUT, true
	e.AddIn(trace.IntReg(1), 5)
	if h.Observe(&e) || h.Observe(&e) {
		t.Error("side-effecting instruction must never be reusable")
	}
	if h.tab.len() != 0 {
		t.Error("side-effecting instructions must not be recorded")
	}
}

func TestHistoryNoInputInstruction(t *testing.T) {
	// An instruction with no inputs (ldi) has an empty input vector: every
	// execution after the first is trivially reusable.
	h := NewHistory()
	e := mkExec(1, nil, []trace.Ref{{Loc: trace.IntReg(1), Val: 5}})
	if h.Observe(&e) {
		t.Error("first ldi not reusable")
	}
	if !h.Observe(&e) {
		t.Error("repeated ldi must be reusable")
	}
}

func TestHistoryDistinguishesMemoryAddress(t *testing.T) {
	// Same PC, same value, different memory address: different input.
	h := NewHistory()
	a := mkExec(1, []trace.Ref{{Loc: trace.Mem(100), Val: 5}}, nil)
	b := mkExec(1, []trace.Ref{{Loc: trace.Mem(101), Val: 5}}, nil)
	h.Observe(&a)
	if h.Observe(&b) {
		t.Error("different address must not be reusable")
	}
}

func TestTraceHistoryStrict(t *testing.T) {
	th := NewTraceHistory()
	s1 := trace.Summary{StartPC: 10, Len: 2, Ins: []trace.Ref{{Loc: trace.IntReg(1), Val: 1}}}
	if th.Observe(&s1) {
		t.Error("first trace instance must not be reusable")
	}
	if !th.Observe(&s1) {
		t.Error("identical trace instance must be reusable")
	}
	s2 := s1
	s2.Ins = []trace.Ref{{Loc: trace.IntReg(1), Val: 2}}
	if th.Observe(&s2) {
		t.Error("different live-in value must not be reusable")
	}
	s3 := s1
	s3.StartPC = 11
	if th.Observe(&s3) {
		t.Error("different start PC must not be reusable")
	}
	if th.tab.len() != 3 {
		t.Errorf("Vectors = %d, want 3", th.tab.len())
	}
}

// TestHistoryMatchesExactSignatureSet checks History against a map of
// exact (PC, input signature) strings over a random stream long enough
// to grow the table several times: an instance is reusable exactly when
// its PC and input vector were recorded before.
func TestHistoryMatchesExactSignatureSet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := NewHistory()
	seen := map[string]bool{}
	var buf []byte
	for i := 0; i < 200000; i++ {
		var e trace.Exec
		e.PC = uint64(rng.Intn(64))
		e.SideEffect = rng.Intn(100) == 0
		for k := rng.Intn(4); k > 0; k-- {
			l := trace.IntReg(uint8(rng.Intn(4)))
			if rng.Intn(3) == 0 {
				l = trace.Mem(uint64(rng.Intn(8)))
			}
			e.AddIn(l, uint64(rng.Intn(6)))
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], e.PC)
		key := string(trace.AppendInputSignature(buf, &e))
		want := !e.SideEffect && seen[key]
		if got := h.Observe(&e); got != want {
			t.Fatalf("instance %d (%v): Observe %v, exact set %v", i, &e, got, want)
		}
		if !e.SideEffect {
			seen[key] = true
		}
	}
	if h.tab.len() != len(seen) {
		t.Fatalf("History holds %d vectors, exact set %d", h.tab.len(), len(seen))
	}
}

// TestSigTableGrowth pushes one table through several growth cycles and
// checks membership stays exact.
func TestSigTableGrowth(t *testing.T) {
	var tab sigTable
	sig := make([]byte, 8)
	put := func(pc, v uint64) bool {
		for i := 0; i < 8; i++ {
			sig[i] = byte(v >> (8 * i))
		}
		return tab.seen(pc, sig)
	}
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if put(i%64, i) {
			t.Fatalf("first insert of (%d,%d) reported seen", i%64, i)
		}
	}
	if tab.len() != n {
		t.Fatalf("len = %d, want %d", tab.len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if !put(i%64, i) {
			t.Fatalf("(%d,%d) lost after growth", i%64, i)
		}
	}
	if tab.len() != n {
		t.Fatalf("len after re-probe = %d, want %d", tab.len(), n)
	}
}
