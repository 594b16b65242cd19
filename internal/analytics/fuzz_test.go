package analytics

import (
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// maxFuzzAccesses bounds one fuzz input's stream, so the O(n·distinct)
// reference stays fast.
const maxFuzzAccesses = 1 << 12

// fuzzOp encodes one stream op of FuzzAnalyzer's input: its kind, a
// sweep flag, an output flag and a repeat count packed in op, a base
// index in lo/hi.
func fuzzOp(kind trace.Kind, sweep, out bool, repeat int, lo, hi byte) []byte {
	op := byte(kind) | byte(repeat-1)<<4
	if sweep {
		op |= 4
	}
	if out {
		op |= 8
	}
	return []byte{op, lo, hi}
}

// fuzzStream decodes fuzz bytes into a stream of records, three bytes
// per op.  Byte 0 holds the location kind (bits 0-1; kind 3 has no
// class of its own), a sweep flag (bit 2), an output flag (bit 3) and
// a repeat count less one (bits 4-7).  A single access touches index
// byte1 | byte2<<8; a sweep touches 1+8·byte2 consecutive indexes from
// byte1.  Accesses fill each record's inputs or outputs in turn, and a
// full side starts the next record.
func fuzzStream(data []byte, consume func(*trace.Exec)) {
	e := &trace.Exec{}
	accesses := 0
	access := func(l trace.Loc, out bool) {
		if out && int(e.NOut) == len(e.Out) || !out && int(e.NIn) == len(e.In) {
			consume(e)
			e.Reset()
		}
		if out {
			e.AddOut(l, 0)
		} else {
			e.AddIn(l, 0)
		}
		accesses++
	}
	for ; len(data) >= 3 && accesses < maxFuzzAccesses; data = data[3:] {
		op, lo, hi := data[0], uint64(data[1]), uint64(data[2])
		kind := uint64(op & 3)
		out := op&8 != 0
		first, n := lo|hi<<8, uint64(1)
		if op&4 != 0 {
			first, n = lo, 1+8*hi
		}
		for rep := 0; rep <= int(op>>4) && accesses < maxFuzzAccesses; rep++ {
			for i := uint64(0); i < n && accesses < maxFuzzAccesses; i++ {
				access(trace.Loc(kind<<62|(first+i)), out)
			}
		}
	}
	if e.NIn+e.NOut > 0 {
		consume(e)
	}
}

// fuzzSeeds returns FuzzAnalyzer's seed corpus, one stream per path of
// the engine; TestFuzzSeedsReachEveryPath checks that each reaches it.
func fuzzSeeds() [][]byte {
	cat := func(ops ...[]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	var long []byte
	for i := 0; i < 12; i++ {
		long = append(long, cat(
			fuzzOp(trace.KindMem, true, false, 16, byte(i), 7),
			fuzzOp(3, true, true, 4, 0, 1),
		)...)
	}
	return [][]byte{
		// Register indexes past the 32-entry file, re-accessed.
		cat(
			fuzzOp(trace.KindIntReg, false, false, 1, 40, 0),
			fuzzOp(trace.KindFPReg, false, true, 1, 200, 0),
			fuzzOp(trace.KindIntReg, false, false, 1, 3, 1),
			fuzzOp(trace.KindIntReg, false, true, 2, 40, 0),
			fuzzOp(trace.KindFPReg, false, false, 1, 33, 0),
			fuzzOp(trace.KindFPReg, false, false, 1, 200, 0),
		),
		// More distinct registers of one class than the recency list
		// holds: re-accesses at distances under, at and past its
		// capacity.
		cat(
			fuzzOp(trace.KindIntReg, true, false, 3, 0, 40),
			fuzzOp(trace.KindFPReg, true, true, 2, 5, 37),
			fuzzOp(trace.KindIntReg, true, false, 1, 60, 31),
			fuzzOp(trace.KindIntReg, false, false, 1, 2, 0),
			fuzzOp(trace.KindFPReg, true, false, 1, 0, 32),
			fuzzOp(trace.KindFPReg, false, true, 1, 5, 0),
		),
		// More distinct memory words than the tree's first size.
		cat(
			fuzzOp(trace.KindMem, true, false, 2, 0, 200),
			fuzzOp(trace.KindMem, true, true, 1, 7, 128),
			fuzzOp(trace.KindIntReg, true, false, 4, 0, 3),
			fuzzOp(trace.KindMem, false, false, 1, 9, 0),
		),
		// A small working set swept long enough to compact many times,
		// with locations of the fourth kind counted as memory.
		long,
	}
}

// TestFuzzSeedsReachEveryPath checks that the seed corpus exercises
// what it claims: registers past the file, full recency lists, a grown
// tree and repeated compaction.
func TestFuzzSeedsReachEveryPath(t *testing.T) {
	seeds := fuzzSeeds()
	run := func(data []byte) *Analyzer {
		a := New()
		fuzzStream(data, a.Consume)
		return a
	}
	a := run(seeds[0])
	for _, l := range []trace.Loc{trace.IntReg(40), trace.FPReg(200), trace.FPReg(33)} {
		if !a.regs[l.Kind()].seen.Get(l) {
			t.Errorf("seed 0 never touches %v", l)
		}
	}
	a = run(seeds[1])
	for k, r := range a.regs {
		if r.n != farDist || r.seen.Len() <= farDist || a.hists[k].Bins[NumBins-1] == 0 {
			t.Errorf("seed 1 leaves register class %d short of its list capacity: %d listed, %d seen, %+v",
				k, r.n, r.seen.Len(), a.hists[k])
		}
	}
	a = run(seeds[2])
	if a.mem.id.Len() <= 1024 || len(a.mem.bit) <= 1024 {
		t.Errorf("seed 2 does not grow the tree: %d words, tree size %d", a.mem.id.Len(), len(a.mem.bit))
	}
	a = run(seeds[3])
	if n := a.hists[trace.KindMem].Accesses; n < 3*uint64(len(a.mem.bit)) {
		t.Errorf("seed 3 makes %d memory accesses over a tree of %d: too few to compact several times", n, len(a.mem.bit))
	}
}

// FuzzAnalyzer checks the engine against the naive reference on
// arbitrary streams over all location kinds: register indexes past the
// register file, register classes wider than the recency list, memory
// sets that grow the tree, and streams that compact it many times.
func FuzzAnalyzer(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, naive := New(), &naiveAnalyzer{}
		fuzzStream(data, func(e *trace.Exec) {
			fast.Consume(e)
			naive.consume(e)
		})
		if got, want := fast.Result(), naive.result(); got != want {
			t.Fatalf("engine diverged from the reference:\n engine %+v\n naive  %+v", got, want)
		}
	})
}
