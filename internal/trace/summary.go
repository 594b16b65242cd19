package trace

// Summary is the reuse-relevant identity of a trace (a dynamic run of
// instructions): its live-in references, its final outputs, and its next
// PC.  It corresponds to one RTM entry of the paper's Figure 1.
//
// Ins holds the locations read before being written inside the run, with
// the values observed at first read, in first-read order (the paper's
// IL(T)/IV(T)).  Outs holds every location written, with its final value,
// in first-write order (OL(T)/OV(T)).
type Summary struct {
	StartPC uint64
	Next    uint64
	Len     int
	Ins     []Ref
	Outs    []Ref
}

// InCounts returns how many live-in references are registers and how many
// are memory words.
func (s *Summary) InCounts() (regs, mems int) { return refCounts(s.Ins) }

// OutCounts returns how many output references are registers and how many
// are memory words.
func (s *Summary) OutCounts() (regs, mems int) { return refCounts(s.Outs) }

// Clone returns a deep copy of s whose Ins and Outs share one freshly
// allocated backing array (none when both are empty).
func (s *Summary) Clone() Summary {
	c := *s
	c.Ins, c.Outs = nil, nil
	if n := len(s.Ins) + len(s.Outs); n > 0 {
		refs := make([]Ref, n)
		copy(refs, s.Ins)
		copy(refs[len(s.Ins):], s.Outs)
		if len(s.Ins) > 0 {
			c.Ins = refs[:len(s.Ins):len(s.Ins)]
		}
		if len(s.Outs) > 0 {
			c.Outs = refs[len(s.Ins):]
		}
	}
	return c
}

func refCounts(refs []Ref) (regs, mems int) {
	for _, r := range refs {
		if r.Loc.IsMem() {
			mems++
		} else {
			regs++
		}
	}
	return regs, mems
}

// Caps bounds a Summary per the RTM entry format: at most InReg/InMem
// live-in registers/memory words and OutReg/OutMem outputs.  Negative
// fields mean unlimited.
type Caps struct {
	InReg, InMem, OutReg, OutMem int
}

// Unlimited places no bound on trace inputs or outputs (limit study).
var Unlimited = Caps{InReg: -1, InMem: -1, OutReg: -1, OutMem: -1}

// Summarizer incrementally computes the Summary of a run of instructions.
// It is the building block of both the limit-study trace partitioner and
// the RTM trace collector; the collector additionally enforces the RTM's
// input/output capacity limits by passing finite Caps to TryAdd.
//
// A Summarizer is meant to be reused: Reset and Seed keep its backing
// arrays and indexes, so an engine that owns one Summarizer per role
// summarises run after run without allocating once those have grown to
// the longest run seen.  The zero Summarizer is empty and ready to use.
type Summarizer struct {
	sum     Summary
	pos     LocMap[refPos] // location -> its positions in sum.Ins and sum.Outs
	started bool

	inReg, inMem, outReg, outMem int
}

// refPos locates one location in a Summarizer's lists: its index+1 in
// Ins and in Outs, 0 where it is absent (so the zero value means "not in
// the run").
type refPos struct{ in, out int32 }

// NewSummarizer returns an empty Summarizer.
func NewSummarizer() *Summarizer { return &Summarizer{} }

// Reset clears the Summarizer for a new run, keeping its storage, in
// O(1).
func (z *Summarizer) Reset() {
	z.pos.Reset()
	z.sum = Summary{Ins: z.sum.Ins[:0], Outs: z.sum.Outs[:0]}
	z.started = false
	z.inReg, z.inMem, z.outReg, z.outMem = 0, 0, 0, 0
}

// Seed initialises the Summarizer from an existing Summary, as when the RTM
// expands a previously stored trace (heuristics ILR EXP and I(n) EXP).
func (z *Summarizer) Seed(s *Summary) {
	z.Reset()
	z.sum.StartPC = s.StartPC
	z.sum.Next = s.Next
	z.sum.Len = s.Len
	z.sum.Ins = append(z.sum.Ins, s.Ins...)
	z.sum.Outs = append(z.sum.Outs, s.Outs...)
	for i, r := range z.sum.Ins {
		z.pos.At(r.Loc).in = int32(i + 1)
	}
	for i, r := range z.sum.Outs {
		z.pos.At(r.Loc).out = int32(i + 1)
	}
	z.inReg, z.inMem = refCounts(z.sum.Ins)
	z.outReg, z.outMem = refCounts(z.sum.Outs)
	z.started = true
}

// Len returns the number of instructions summarised so far.
func (z *Summarizer) Len() int { return z.sum.Len }

// NextPC returns the PC following the last summarised instruction.
func (z *Summarizer) NextPC() uint64 { return z.sum.Next }

// StartPC returns the PC of the first summarised instruction.
func (z *Summarizer) StartPC() uint64 { return z.sum.StartPC }

// Empty reports whether no instruction has been added.
func (z *Summarizer) Empty() bool { return z.sum.Len == 0 }

// Add extends the run with e with no capacity limits.  It panics if e has a
// side effect; limit-study callers never pass those.
func (z *Summarizer) Add(e *Exec) {
	if !z.TryAdd(e, Unlimited) {
		panic("trace: Summarizer.Add rejected a side-effecting instruction")
	}
}

// TryAdd extends the run with e unless e is side-effecting or a cap would
// be exceeded.  On rejection the Summarizer is unchanged.
func (z *Summarizer) TryAdd(e *Exec, caps Caps) bool {
	if e.SideEffect {
		return false // side effects can never be replayed from a table
	}

	// Stage new live-ins and outputs (deduplicated within e) so the
	// rejection path leaves state untouched.
	var stagedIns, stagedOuts [3]Ref
	nIns, nOuts := 0, 0
	for _, r := range e.Inputs() {
		if !z.isLiveIn(r.Loc) {
			continue // produced inside the run, or first read fixed its value
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
	// Writes to already-known output locations take the newest value.
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

func exceeds(n, limit int) bool { return limit >= 0 && n > limit }

// Summary returns a copy of the accumulated summary that later use of
// the Summarizer leaves unchanged.
func (z *Summarizer) Summary() Summary { return z.sum.Clone() }

// Current returns the accumulated summary in place, without copying.  It
// aliases the Summarizer's storage: it is valid only until the next
// Reset, Seed, TryAdd, Add or TryMerge, and must not be modified.
func (z *Summarizer) Current() *Summary { return &z.sum }

// SummarizeRun computes the Summary of a complete run in one call.
func SummarizeRun(run []Exec) Summary {
	z := NewSummarizer()
	for i := range run {
		z.Add(&run[i])
	}
	return z.Summary()
}
