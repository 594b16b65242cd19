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
//
// One pass over e's operands probes each location once: it stages the
// new live-ins and outputs (deduplicated within e) with their register
// and memory counts, and notes where every output's value lands — an
// output already in the run by the index the probe found, a new one by
// its staged position — so committing needs no second probe.
func (z *Summarizer) TryAdd(e *Exec, caps Caps) bool {
	if e.SideEffect {
		return false // side effects can never be replayed from a table
	}

	var staged [len(e.In) + len(e.Out)]Ref // new live-ins, then new outputs
	var outAt [len(e.Out)]int32            // each output's index in sum.Outs
	nIns := 0
	var addInReg, addInMem, addOutReg, addOutMem int
	for _, r := range e.Inputs() {
		if !z.isLiveIn(r.Loc) || refIndex(staged[:nIns], r.Loc) >= 0 {
			continue // produced inside the run, or first read fixed its value
		}
		staged[nIns] = r
		nIns++
		countRef(r.Loc, &addInReg, &addInMem)
	}
	newOuts := staged[nIns:nIns]
	for i, r := range e.Outputs() {
		if at := z.pos.Get(r.Loc).out; at != 0 {
			outAt[i] = at - 1
			continue
		}
		k := refIndex(newOuts, r.Loc)
		if k < 0 {
			k = len(newOuts)
			newOuts = append(newOuts, r)
			countRef(r.Loc, &addOutReg, &addOutMem)
		}
		outAt[i] = int32(len(z.sum.Outs) + k)
	}

	if exceeds(z.inReg+addInReg, caps.InReg) || exceeds(z.inMem+addInMem, caps.InMem) ||
		exceeds(z.outReg+addOutReg, caps.OutReg) || exceeds(z.outMem+addOutMem, caps.OutMem) {
		return false
	}

	if !z.started {
		z.sum.StartPC = e.PC
		z.started = true
	}
	for _, r := range staged[:nIns] {
		z.sum.Ins = append(z.sum.Ins, r)
		z.pos.At(r.Loc).in = int32(len(z.sum.Ins))
	}
	for _, r := range newOuts {
		z.sum.Outs = append(z.sum.Outs, r)
		z.pos.At(r.Loc).out = int32(len(z.sum.Outs))
	}
	// Writes take the newest value, in write order.
	for i, r := range e.Outputs() {
		z.sum.Outs[outAt[i]].Val = r.Val
	}
	z.inReg += addInReg
	z.inMem += addInMem
	z.outReg += addOutReg
	z.outMem += addOutMem
	z.sum.Len++
	z.sum.Next = e.Next
	return true
}

// refIndex returns the index of l among refs, or -1.
func refIndex(refs []Ref, l Loc) int {
	for i, s := range refs {
		if s.Loc == l {
			return i
		}
	}
	return -1
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
