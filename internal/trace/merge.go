package trace

// TryMerge extends the run with a whole previously-summarised trace, as
// when the RTM merges two consecutively reused traces (heuristics ILR EXP
// and I(n) EXP).  The merged trace behaves as if s's instructions had been
// appended one by one: s's live-ins that are produced by the current run
// are internal, the rest become live-ins; s's outputs overwrite or extend
// the output list.  On cap violation the Summarizer is unchanged.
//
// Precondition (guaranteed at a reuse hit): s's live-in values equal the
// current architectural state, so any of its live-ins produced by this run
// carry the run's output values.  s's live-in locations are distinct, as
// are its output locations, as in every Summary a Summarizer produces.
func (z *Summarizer) TryMerge(s *Summary, caps Caps) bool {
	// Count what the merge would add before changing anything, so the
	// rejection path needs no staging copy of s.
	var addInReg, addInMem, addOutReg, addOutMem int
	for _, r := range s.Ins {
		if z.isLiveIn(r.Loc) {
			countRef(r.Loc, &addInReg, &addInMem)
		}
	}
	for _, r := range s.Outs {
		if z.pos.Get(r.Loc).out == 0 {
			countRef(r.Loc, &addOutReg, &addOutMem)
		}
	}
	if exceeds(z.inReg+addInReg, caps.InReg) || exceeds(z.inMem+addInMem, caps.InMem) ||
		exceeds(z.outReg+addOutReg, caps.OutReg) || exceeds(z.outMem+addOutMem, caps.OutMem) {
		return false
	}
	if !z.started {
		z.sum.StartPC = s.StartPC
		z.started = true
	}
	// Live-ins first: whether s's input is internal depends on the
	// outputs before the merge.
	for _, r := range s.Ins {
		if p := z.pos.At(r.Loc); *p == (refPos{}) {
			z.sum.Ins = append(z.sum.Ins, r)
			p.in = int32(len(z.sum.Ins))
		}
	}
	for _, r := range s.Outs {
		p := z.pos.At(r.Loc)
		if p.out != 0 {
			z.sum.Outs[p.out-1].Val = r.Val
			continue
		}
		z.sum.Outs = append(z.sum.Outs, r)
		p.out = int32(len(z.sum.Outs))
	}
	z.inReg += addInReg
	z.inMem += addInMem
	z.outReg += addOutReg
	z.outMem += addOutMem
	z.sum.Len += s.Len
	z.sum.Next = s.Next
	return true
}

// isLiveIn reports whether a read of l would be a new live-in of the run:
// neither produced inside it nor already read.
func (z *Summarizer) isLiveIn(l Loc) bool {
	return z.pos.Get(l) == refPos{}
}

func countRef(l Loc, regs, mems *int) {
	if l.IsMem() {
		*mems++
	} else {
		*regs++
	}
}
