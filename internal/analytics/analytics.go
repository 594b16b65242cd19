// Package analytics computes exact LRU reuse-distance histograms over
// dynamic instruction streams — the figure every external-trace exemplar
// reports (binned stack distances: 0–15, 16–31, 32–63, 64–127, 128–255,
// 256+), broken down by operand-location class (integer registers,
// floating-point registers, memory words).
//
// The reuse distance of an access is the number of *distinct* locations
// of the same class touched since the previous access to the same
// location (0 = immediately re-accessed); a location's first access is
// "cold" and carries no distance.  The histogram saturates at 256, so
// each class is tracked in the cheapest structure that is still exact:
//
//   - A register class keeps a move-to-front recency list of its 256
//     most recently used locations.  A location found at position i has
//     distance i; one the list no longer holds was touched before, with
//     256 or more distinct locations since (bin 256+), or never (cold).
//     Register reuse is close, so an access usually costs a few
//     compares, and never more than 256.
//   - Memory words go through a Fenwick tree over last-access timestamps
//     (the Bennett–Kruskal construction), exact in O(log n) per access:
//     each word's most recent access is a marker in time order, and the
//     distance of a re-access is the count of markers strictly between
//     the two accesses.
//
// A location of any other kind is counted with memory, as Result.Class
// and ClassLabel name it.  The naive O(n²) stack scan exists only in the
// package tests, as the reference both structures are proven against.
package analytics

import (
	"github.com/tracereuse/tlr/internal/trace"
)

// NumBins is the number of finite histogram bins; accesses at distance
// farDist and beyond share the last bin, and cold (first-touch) accesses
// are counted separately.
const NumBins = 6

// farDist is the first distance of the last bin: no distance at or past
// it is told apart from another.
const farDist = 256

var binLabels = [NumBins]string{"0-15", "16-31", "32-63", "64-127", "128-255", "256+"}

// BinLabel returns the human label of a histogram bin ("0-15" … "256+").
func BinLabel(i int) string { return binLabels[i] }

// BinOf maps an exact reuse distance onto its histogram bin.
func BinOf(d uint64) int {
	switch {
	case d < 16:
		return 0
	case d < 32:
		return 1
	case d < 64:
		return 2
	case d < 128:
		return 3
	case d < farDist:
		return 4
	default:
		return 5
	}
}

// ClassLabel names an operand-location class (indexed by trace.Kind).
func ClassLabel(k trace.Kind) string {
	switch k {
	case trace.KindIntReg:
		return "int-reg"
	case trace.KindFPReg:
		return "fp-reg"
	default:
		return "mem"
	}
}

// Hist is one operand-location class's binned reuse-distance histogram.
type Hist struct {
	// Accesses is the total operand accesses of this class (inputs and
	// outputs), Cold the first touches among them; the finite Bins
	// partition the remaining Accesses-Cold re-accesses.
	Accesses uint64          `json:"accesses"`
	Cold     uint64          `json:"cold"`
	Bins     [NumBins]uint64 `json:"bins"`
	// Distinct is the number of distinct locations of the class touched
	// over the whole stream.
	Distinct uint64 `json:"distinct"`
}

// Result is a completed reuse-distance analysis: one histogram per
// operand-location class over Records consumed records.
type Result struct {
	Records uint64 `json:"records"`
	IntReg  Hist   `json:"intReg"`
	FPReg   Hist   `json:"fpReg"`
	Mem     Hist   `json:"mem"`
}

// Class returns the histogram of one operand-location class.
func (r *Result) Class(k trace.Kind) *Hist {
	switch k {
	case trace.KindIntReg:
		return &r.IntReg
	case trace.KindFPReg:
		return &r.FPReg
	default:
		return &r.Mem
	}
}

// Analyzer consumes a dynamic instruction stream and accumulates the
// per-class reuse-distance histograms.  It is not safe for concurrent
// use; each analysis pass gets its own Analyzer.
type Analyzer struct {
	records uint64
	regs    [2]recency // integer, then FP registers
	mem     distTree   // memory words and locations of any other kind
	hists   [3]Hist
}

// New returns an empty Analyzer.
func New() *Analyzer {
	a := &Analyzer{}
	a.mem.init()
	return a
}

// Consume observes one executed record: every operand reference —
// inputs in read order, then outputs in write order — is one access to
// its location's class.
func (a *Analyzer) Consume(e *trace.Exec) {
	a.records++
	for _, r := range e.Inputs() {
		a.access(r.Loc)
	}
	for _, r := range e.Outputs() {
		a.access(r.Loc)
	}
}

func (a *Analyzer) access(l trace.Loc) {
	var d uint64
	var cold bool
	k := l.Kind()
	if k < trace.KindMem {
		d, cold = a.regs[k].access(l)
	} else {
		k = trace.KindMem
		d, cold = a.mem.access(l)
	}
	h := &a.hists[k]
	h.Accesses++
	if cold {
		h.Cold++
	} else {
		h.Bins[BinOf(d)]++
	}
}

// Result returns the analysis so far.  The Analyzer remains usable, so
// a caller can snapshot mid-stream.
func (a *Analyzer) Result() Result {
	res := Result{Records: a.records, IntReg: a.hists[trace.KindIntReg],
		FPReg: a.hists[trace.KindFPReg], Mem: a.hists[trace.KindMem]}
	res.IntReg.Distinct = uint64(a.regs[trace.KindIntReg].seen.Len())
	res.FPReg.Distinct = uint64(a.regs[trace.KindFPReg].seen.Len())
	res.Mem.Distinct = uint64(a.mem.id.Len())
	return res
}

// recency tracks one register class: its farDist most recently used
// locations, most recent first, and the set of every location it has
// seen.  The list is exact LRU stack order, so a listed location's
// position is its reuse distance; an unlisted one that was seen has at
// least farDist distinct locations above it.
type recency struct {
	seen trace.LocMap[bool]
	list [farDist]trace.Loc
	n    int
}

// access records one access and returns its reuse distance, or farDist
// for any distance at or past it (meaningless when cold is true).
func (r *recency) access(l trace.Loc) (dist uint64, cold bool) {
	// Move l to the front in one pass: every entry above it shifts down
	// one place.
	list := r.list[:r.n]
	prev := l
	for i, cur := range list {
		list[i] = prev
		if cur == l {
			return uint64(i), false
		}
		prev = cur
	}
	if r.n < farDist {
		r.list[r.n] = prev
		r.n++
	}
	seen := r.seen.At(l)
	cold = !*seen
	*seen = true
	return farDist, cold
}

// distTree tracks exact LRU stack distances for the memory class.
//
// Every access gets a timestamp; a Fenwick tree over timestamps holds a
// marker at each location's most recent access.  On a re-access the
// distance is the number of markers strictly between the previous and
// the current timestamp — the distinct locations touched since — and
// the location's marker moves forward.  When the timeline fills, live
// markers are renumbered to the front in one pass over the timeline
// (their relative order is all that matters) and the tree is rebuilt in
// place, so its size tracks the distinct-location count, not the stream
// length, and the amortised cost stays O(log n) per access.
type distTree struct {
	id    trace.LocMap[uint32] // location -> 1 + its index in last (0 = never seen)
	last  []uint32             // per location: timestamp of its marker
	owner []uint32             // per timestamp: the location that stamped it
	bit   []int32              // Fenwick tree, 1-based over timestamps
	t     uint32               // timestamps handed out since last compact
}

func (s *distTree) init() {
	s.bit = make([]int32, 1024)
	s.owner = make([]uint32, len(s.bit))
}

// access records one access and returns its exact reuse distance
// (meaningless when cold is true: the location was never seen before).
func (s *distTree) access(l trace.Loc) (dist uint64, cold bool) {
	if int(s.t)+1 >= len(s.bit) {
		s.compact()
	}
	s.t++
	id := s.id.At(l)
	if *id == 0 {
		s.last = append(s.last, 0)
		*id = uint32(len(s.last))
		cold = true
	}
	i := *id - 1
	if tl := s.last[i]; tl != 0 {
		dist = s.between(tl, s.t)
		s.add(tl, -1)
	}
	s.add(s.t, 1)
	s.last[i] = s.t
	s.owner[s.t] = i
	return dist, cold
}

// compact renumbers the live markers 1..m in timestamp order and
// rebuilds the tree, growing it only when the live set no longer leaves
// headroom.  Order is preserved, so every future distance is unchanged.
func (s *distTree) compact() {
	// A timestamp is live when its owner's marker is still there; every
	// owner's dead stamps precede its live one, so renumbering in the
	// same pass never makes a dead stamp look live.
	m := uint32(0)
	for t := uint32(1); t <= s.t; t++ {
		if i := s.owner[t]; s.last[i] == t {
			m++
			s.owner[m] = i
			s.last[i] = m
		}
	}
	s.t = m
	if n := len(s.bit); n < 2*(int(m)+2) {
		for n < 2*(int(m)+2) {
			n *= 2
		}
		s.bit = make([]int32, n)
		owner := make([]uint32, n)
		copy(owner, s.owner[:m+1])
		s.owner = owner
	}
	// Markers sit at exactly 1..m: node i covers timestamps
	// (i-lowbit(i), i], so it counts that interval's overlap with 1..m.
	for i := 1; i < len(s.bit); i++ {
		lo := i - i&-i
		s.bit[i] = int32(max(0, min(i, int(m))-lo))
	}
}

func (s *distTree) add(i uint32, v int32) {
	for ; int(i) < len(s.bit); i += i & -i {
		s.bit[i] += v
	}
}

// between returns the number of markers at timestamps lo+1..hi-1: the
// prefix sums to hi-1 and to lo walked down together until their paths
// meet, so a short interval costs a short walk.
func (s *distTree) between(lo, hi uint32) uint64 {
	var sum int32
	i, j := hi-1, lo
	for i != j {
		if i > j {
			sum += s.bit[i]
			i -= i & -i
		} else {
			sum -= s.bit[j]
			j -= j & -j
		}
	}
	return uint64(sum)
}
