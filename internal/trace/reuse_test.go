package trace

import (
	"math/rand"
	"testing"
)

// sameSummary compares summaries by content; an empty slice equals nil.
func sameSummary(a, b *Summary) bool {
	if a.StartPC != b.StartPC || a.Next != b.Next || a.Len != b.Len ||
		len(a.Ins) != len(b.Ins) || len(a.Outs) != len(b.Outs) {
		return false
	}
	for i := range a.Ins {
		if a.Ins[i] != b.Ins[i] {
			return false
		}
	}
	for i := range a.Outs {
		if a.Outs[i] != b.Outs[i] {
			return false
		}
	}
	return true
}

// randLoc draws from a small pool so runs revisit locations, including
// ones a malformed stream may name outside the register file.
func randLoc(rng *rand.Rand) Loc {
	switch rng.Intn(10) {
	case 0:
		return Mem(uint64(rng.Intn(6)))
	case 1:
		return FPReg(uint8(rng.Intn(4)))
	case 2:
		return IntReg(uint8(32 + rng.Intn(3))) // past the register file
	case 3:
		return Loc(3<<62 | uint64(rng.Intn(3))) // unused kind
	default:
		return IntReg(uint8(rng.Intn(8)))
	}
}

func randExec(rng *rand.Rand, pc uint64) Exec {
	var e Exec
	e.PC, e.Next = pc, pc+1
	e.SideEffect = rng.Intn(25) == 0
	for k := rng.Intn(4); k > 0; k-- {
		e.AddIn(randLoc(rng), uint64(rng.Intn(4)))
	}
	for k := rng.Intn(3); k > 0; k-- {
		e.AddOut(randLoc(rng), uint64(rng.Intn(100)))
	}
	return e
}

// randSummary is a summary as the RTM stores one: what a fresh
// Summarizer makes of a short random run.
func randSummary(rng *rand.Rand, pc uint64) Summary {
	z := NewSummarizer()
	for i := 0; i < 1+rng.Intn(5); i++ {
		e := randExec(rng, pc+uint64(i))
		e.SideEffect = false
		z.Add(&e)
	}
	return z.Summary()
}

// TestReusedSummarizerMatchesFresh drives one Summarizer through many
// runs, resetting or re-seeding it between them, and replays each run on
// a fresh Summarizer.  Every operation must agree, and so must the
// resulting summaries: reuse must leave nothing of an earlier run behind
// (in the index, the counts or the backing arrays).  Every Summary handed
// out earlier must stay as it was while the Summarizer is reused.
func TestReusedSummarizerMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tight := Caps{InReg: 3, InMem: 1, OutReg: 2, OutMem: 1}
	reused := NewSummarizer()
	type handed struct{ got, want Summary }
	var earlier []handed
	for run := 0; run < 3000; run++ {
		fresh := NewSummarizer()
		if rng.Intn(3) == 0 {
			seed := randSummary(rng, uint64(rng.Intn(50)))
			reused.Seed(&seed)
			fresh.Seed(&seed)
		} else {
			reused.Reset()
		}
		caps := Unlimited
		if rng.Intn(2) == 0 {
			caps = tight
		}
		pc := uint64(rng.Intn(50))
		for op := 0; op < 1+rng.Intn(12); op++ {
			var ok, want bool
			if rng.Intn(5) == 0 {
				next := pc
				if !fresh.Empty() && rng.Intn(4) != 0 {
					next = fresh.NextPC()
				}
				s := randSummary(rng, next)
				ok, want = reused.TryMerge(&s, caps), fresh.TryMerge(&s, caps)
			} else {
				e := randExec(rng, pc)
				ok, want = reused.TryAdd(&e, caps), fresh.TryAdd(&e, caps)
			}
			if ok != want {
				t.Fatalf("run %d op %d: reused Summarizer returned %v, fresh %v", run, op, ok, want)
			}
			pc++
		}
		got, want := reused.Summary(), fresh.Summary()
		if !sameSummary(&got, &want) {
			t.Fatalf("run %d: reused Summarizer summarised\n%+v\nfresh one\n%+v", run, got, want)
		}
		if !sameSummary(reused.Current(), &want) {
			t.Fatalf("run %d: Current() = %+v, want %+v", run, *reused.Current(), want)
		}
		earlier = append(earlier, handed{got, want})
	}
	for i, h := range earlier {
		if !sameSummary(&h.got, &h.want) {
			t.Fatalf("summary %d changed after the Summarizer was reused: %+v, was %+v", i, h.got, h.want)
		}
	}
}

// TestCloneSharesNothing: a clone is a deep copy in one backing array, and
// appending to its live-ins cannot overwrite its outputs.
func TestCloneSharesNothing(t *testing.T) {
	s := Summary{StartPC: 1, Next: 4, Len: 3,
		Ins:  []Ref{{IntReg(1), 1}, {Mem(2), 2}},
		Outs: []Ref{{IntReg(3), 3}}}
	c := s.Clone()
	if !sameSummary(&c, &s) {
		t.Fatalf("clone %+v != %+v", c, s)
	}
	s.Ins[0].Val, s.Outs[0].Val = 9, 9
	if c.Ins[0].Val != 1 || c.Outs[0].Val != 3 {
		t.Fatalf("clone aliases the original: %+v", c)
	}
	_ = append(c.Ins, Ref{IntReg(5), 5})
	if c.Outs[0] != (Ref{IntReg(3), 3}) {
		t.Fatalf("append to cloned Ins overwrote Outs: %+v", c.Outs)
	}
	if e := (&Summary{Len: 1}).Clone(); e.Ins != nil || e.Outs != nil {
		t.Fatalf("empty clone allocated: %+v", e)
	}
}

// TestTryMergeEqualsSequentialAdds: merging the summary of run B into
// run A must equal adding B's instructions one by one, and must fit the
// caps exactly when every one of those adds does (counts only grow).
func TestTryMergeEqualsSequentialAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tight := Caps{InReg: 3, InMem: 1, OutReg: 2, OutMem: 1}
	for iter := 0; iter < 3000; iter++ {
		var a, b []Exec
		for i := 0; i < 1+rng.Intn(4); i++ {
			e := randExec(rng, uint64(i))
			e.SideEffect = false
			a = append(a, e)
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			e := randExec(rng, uint64(len(a)+i))
			e.SideEffect = false
			b = append(b, e)
		}
		caps := Unlimited
		if rng.Intn(2) == 0 {
			caps = tight
		}
		merged, seq, bz := NewSummarizer(), NewSummarizer(), NewSummarizer()
		for i := range a {
			merged.Add(&a[i])
			seq.Add(&a[i])
		}
		for i := range b {
			bz.Add(&b[i])
		}
		bs := bz.Summary()
		fits := true
		for i := range b {
			fits = fits && seq.TryAdd(&b[i], Unlimited)
		}
		if seqSum := seq.Summary(); caps != Unlimited {
			ir, im := seqSum.InCounts()
			or, om := seqSum.OutCounts()
			fits = ir <= caps.InReg && im <= caps.InMem && or <= caps.OutReg && om <= caps.OutMem
		}
		if got := merged.TryMerge(&bs, caps); got != fits {
			t.Fatalf("iter %d: TryMerge = %v, sequential adds fit = %v", iter, got, fits)
		}
		if !fits {
			continue
		}
		got, want := merged.Summary(), seq.Summary()
		if !sameSummary(&got, &want) {
			t.Fatalf("iter %d: merged\n%+v\nsequential\n%+v", iter, got, want)
		}
	}
}

// TestLocIndexMatchesMap checks the Summarizer's location table against
// a map rebuilt from its Ins and Outs lists, over registers, memory words
// and locations outside the register file, through adds, merges, resets
// and seeds: every location must report exactly its positions in the
// lists, and every other location none.
func TestLocIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tight := Caps{InReg: 3, InMem: 1, OutReg: 2, OutMem: 1}
	var z Summarizer
	for op := 0; op < 20000; op++ {
		switch rng.Intn(8) {
		case 0:
			z.Reset()
		case 1:
			seed := randSummary(rng, uint64(rng.Intn(50)))
			z.Seed(&seed)
		case 2:
			s := randSummary(rng, z.NextPC())
			z.TryMerge(&s, tight)
		default:
			e := randExec(rng, z.NextPC())
			z.TryAdd(&e, Unlimited)
		}
		model := map[Loc]refPos{}
		for i, r := range z.sum.Ins {
			p := model[r.Loc]
			p.in = int32(i + 1)
			model[r.Loc] = p
		}
		for i, r := range z.sum.Outs {
			p := model[r.Loc]
			p.out = int32(i + 1)
			model[r.Loc] = p
		}
		if z.pos.Len() != len(model) {
			t.Fatalf("op %d: table holds %d locations, lists %d", op, z.pos.Len(), len(model))
		}
		for k := 0; k < 8; k++ {
			l := randLoc(rng)
			if got, want := z.pos.Get(l), model[l]; got != want {
				t.Fatalf("op %d: position of %v = %+v, lists say %+v", op, l, got, want)
			}
		}
	}
}
