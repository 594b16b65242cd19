package trace

import (
	"math/rand"
	"testing"
)

// tryAddRef is the two-pass TryAdd the one-pass version replaced, kept as
// the reference: it stages live-ins and outputs, counts them with
// refCounts, and after committing looks every output up again to store
// its newest value.
func (z *Summarizer) tryAddRef(e *Exec, caps Caps) bool {
	if e.SideEffect {
		return false
	}
	var stagedIns, stagedOuts [3]Ref
	nIns, nOuts := 0, 0
	for _, r := range e.Inputs() {
		if !z.isLiveIn(r.Loc) {
			continue
		}
		dup := false
		for _, s := range stagedIns[:nIns] {
			if s.Loc == r.Loc {
				dup = true
				break
			}
		}
		if !dup {
			stagedIns[nIns] = r
			nIns++
		}
	}
	for _, r := range e.Outputs() {
		if z.pos.Get(r.Loc).out != 0 {
			continue
		}
		dup := false
		for _, s := range stagedOuts[:nOuts] {
			if s.Loc == r.Loc {
				dup = true
				break
			}
		}
		if !dup {
			stagedOuts[nOuts] = r
			nOuts++
		}
	}
	addInReg, addInMem := refCounts(stagedIns[:nIns])
	addOutReg, addOutMem := refCounts(stagedOuts[:nOuts])
	if exceeds(z.inReg+addInReg, caps.InReg) || exceeds(z.inMem+addInMem, caps.InMem) ||
		exceeds(z.outReg+addOutReg, caps.OutReg) || exceeds(z.outMem+addOutMem, caps.OutMem) {
		return false
	}
	if !z.started {
		z.sum.StartPC = e.PC
		z.started = true
	}
	for _, r := range stagedIns[:nIns] {
		z.sum.Ins = append(z.sum.Ins, r)
		z.pos.At(r.Loc).in = int32(len(z.sum.Ins))
	}
	for _, r := range stagedOuts[:nOuts] {
		z.sum.Outs = append(z.sum.Outs, r)
		z.pos.At(r.Loc).out = int32(len(z.sum.Outs))
	}
	for _, r := range e.Outputs() {
		z.sum.Outs[z.pos.Get(r.Loc).out-1].Val = r.Val
	}
	z.inReg += addInReg
	z.inMem += addInMem
	z.outReg += addOutReg
	z.outMem += addOutMem
	z.sum.Len++
	z.sum.Next = e.Next
	return true
}

// positions snapshots a Summarizer's position table.
func positions(z *Summarizer) map[Loc]refPos {
	m := map[Loc]refPos{}
	for l, p := range z.pos.All() {
		m[l] = *p
	}
	return m
}

func samePositions(a, b map[Loc]refPos) bool {
	if len(a) != len(b) {
		return false
	}
	for l, p := range a {
		if q, ok := b[l]; !ok || q != p {
			return false
		}
	}
	return true
}

// TestTryAddMatchesReference drives the one-pass TryAdd and the two-pass
// reference side by side over random records that repeat input and
// output locations — within one record too — under tight caps.  Every
// add must be accepted or rejected alike and leave equal summaries,
// counts and position tables; a rejected add must change neither
// Current() nor the position table.
func TestTryAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var got, want Summarizer
	for run := 0; run < 3000; run++ {
		got.Reset()
		want.Reset()
		caps := Caps{InReg: rng.Intn(5) - 1, InMem: rng.Intn(3) - 1, OutReg: rng.Intn(5) - 1, OutMem: rng.Intn(3) - 1}
		pc := uint64(rng.Intn(1000))
		for i := 0; i < 1+rng.Intn(12); i++ {
			e := randExec(rng, pc+uint64(i))
			if e.NOut == 2 && rng.Intn(3) == 0 {
				e.Out[1].Loc = e.Out[0].Loc // one record writes a location twice
			}
			if e.NIn > 0 && e.NOut > 0 && rng.Intn(3) == 0 {
				e.Out[0].Loc = e.In[0].Loc // reads and writes the same location
			}
			before, beforePos := got.Summary(), positions(&got)
			ok := got.TryAdd(&e, caps)
			if okRef := want.tryAddRef(&e, caps); ok != okRef {
				t.Fatalf("run %d, add %d (%v, caps %+v): TryAdd %v, reference %v", run, i, &e, caps, ok, okRef)
			}
			if !ok && (!sameSummary(got.Current(), &before) || !samePositions(positions(&got), beforePos)) {
				t.Fatalf("run %d, add %d: a rejected add changed the Summarizer", run, i)
			}
			if !sameSummary(got.Current(), want.Current()) {
				t.Fatalf("run %d, add %d (%v): summary\n got  %+v\n want %+v", run, i, &e, *got.Current(), *want.Current())
			}
			if got.inReg != want.inReg || got.inMem != want.inMem || got.outReg != want.outReg || got.outMem != want.outMem {
				t.Fatalf("run %d, add %d: counts differ from the reference", run, i)
			}
			if !samePositions(positions(&got), positions(&want)) {
				t.Fatalf("run %d, add %d: position tables differ", run, i)
			}
		}
	}
}
