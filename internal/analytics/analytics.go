// Package analytics computes exact LRU reuse-distance histograms over
// dynamic instruction streams — the figure every external-trace exemplar
// reports (binned stack distances: 0–15, 16–31, 32–63, 64–127, 128–255,
// 256+), broken down by operand-location class (integer registers,
// floating-point registers, memory words).
//
// The reuse distance of an access is the number of *distinct* locations
// of the same class touched since the previous access to the same
// location (0 = immediately re-accessed); a location's first access is
// "cold" and carries no distance.  Distances are computed exactly in
// O(n log n) with a Fenwick tree over last-access timestamps (the
// Bennett–Kruskal construction): each location's most recent access is a
// marker in time order, and the distance of a re-access is the count of
// markers strictly between the two accesses.  The naive O(n²) stack
// scan exists only in the package tests, as the reference the tree is
// proven against.
package analytics

import (
	"sort"

	"github.com/tracereuse/tlr/internal/trace"
)

// NumBins is the number of finite histogram bins; accesses at distance
// 256 and beyond share the last bin, and cold (first-touch) accesses
// are counted separately.
const NumBins = 6

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
	case d < 256:
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
	stacks  [3]distStack
	hists   [3]Hist
}

// New returns an empty Analyzer.
func New() *Analyzer {
	a := &Analyzer{}
	for i := range a.stacks {
		a.stacks[i].init()
	}
	return a
}

// Consume observes one executed record: every operand reference —
// inputs in read order, then outputs in write order — is one access to
// its location's class stack.
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
	k := l.Kind()
	d, cold := a.stacks[k].access(l)
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
	res := Result{Records: a.records}
	for k := trace.KindIntReg; k <= trace.KindMem; k++ {
		h := a.hists[k]
		h.Distinct = uint64(a.stacks[k].last.Len())
		*res.Class(k) = h
	}
	return res
}

// distStack tracks exact LRU stack distances for one location class.
//
// Every access gets a timestamp; a Fenwick tree over timestamps holds a
// marker at each location's most recent access.  On a re-access the
// distance is the number of markers strictly between the previous and
// the current timestamp — the distinct locations touched since — and
// the location's marker moves forward.  When the timeline fills, live
// markers are compacted to the front (their relative order is all that
// matters), so the tree's size tracks the distinct-location count, not
// the stream length, and the amortised cost stays O(log n) per access.
type distStack struct {
	last trace.LocMap[uint64] // location -> timestamp of its marker (0 = never seen)
	bit  []int32              // Fenwick tree, 1-based over timestamps
	t    uint64               // timestamps handed out since last compact
}

func (s *distStack) init() {
	s.bit = make([]int32, 1024)
}

// access records one access and returns its exact reuse distance
// (meaningless when cold is true: the location was never seen before).
func (s *distStack) access(l trace.Loc) (dist uint64, cold bool) {
	if s.t+1 >= uint64(len(s.bit)) {
		s.compact()
	}
	s.t++
	last := s.last.At(l)
	tl := *last
	if tl != 0 {
		dist = s.prefix(s.t-1) - s.prefix(tl)
		s.add(tl, -1)
	}
	s.add(s.t, 1)
	*last = s.t
	return dist, tl == 0
}

// compact renumbers the live markers 1..m in timestamp order and
// rebuilds the tree, growing it when the live set no longer leaves
// headroom.  Order is preserved, so every future distance is unchanged.
func (s *distStack) compact() {
	marks := make([]*uint64, 0, s.last.Len())
	for _, t := range s.last.All() {
		marks = append(marks, t)
	}
	sort.Slice(marks, func(i, j int) bool { return *marks[i] < *marks[j] })
	for i, t := range marks {
		*t = uint64(i + 1)
	}
	n := len(s.bit)
	for n < 2*(len(marks)+2) {
		n *= 2
	}
	s.bit = make([]int32, n)
	s.t = uint64(len(marks))
	for i := range marks {
		s.add(uint64(i+1), 1)
	}
}

func (s *distStack) add(i uint64, v int32) {
	for ; i < uint64(len(s.bit)); i += i & (-i) {
		s.bit[i] += v
	}
}

// prefix returns the number of markers at timestamps 1..i.
func (s *distStack) prefix(i uint64) uint64 {
	var sum int64
	for ; i > 0; i -= i & (-i) {
		sum += int64(s.bit[i])
	}
	return uint64(sum)
}
