package rtm

import (
	"github.com/tracereuse/tlr/internal/trace"
)

// IRB is the finite instruction-reuse buffer that the ILR trace-collection
// heuristics need (§4.6: "a different reuse memory used for testing
// instruction-level reusability is also needed; this memory has as many
// entries as the RTM").  It mirrors the RTM's geometry: Sets sets,
// PCWays static instructions per set, TracesPerPC input vectors per
// static instruction, all LRU.
type IRB struct {
	geom Geometry
	sets [][]*irbSlot
	tick uint64

	tests      uint64
	hits       uint64
	slotEvicts uint64 // PC slots evicted (see run.ResultAs)
}

type irbSlot struct {
	pc      uint64
	sigs    []irbSig
	fps     []uint64 // fps[i] is the fingerprint of sigs[i]
	lastUse uint64
}

// irbSig is one recorded input vector: e's inputs in read order, unused
// entries zero.  Two vectors match exactly when their counts and refs are
// equal — the same test as byte-equal input signatures
// (trace.AppendInputSignature), without building one.
type irbSig struct {
	in      [len(trace.Exec{}.In)]trace.Ref
	n       uint8
	lastUse uint64
}

// irbFingerprint hashes an input vector to 64 bits.  Equal vectors have
// equal fingerprints, so a slot compares in full only the vectors whose
// fingerprint matches, and almost never one that then differs.
func irbFingerprint(in []trace.Ref) uint64 {
	h := uint64(len(in)) * 0x9e3779b97f4a7c15
	for _, r := range in {
		h = (h ^ uint64(r.Loc)) * 0xbf58476d1ce4e5b9
		h = (h ^ r.Val) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// NewIRB builds an empty instruction-reuse buffer with the RTM's geometry.
func NewIRB(geom Geometry) *IRB {
	return &IRB{geom: geom, sets: make([][]*irbSlot, geom.Sets)}
}

// TestAndRecord reports whether e's input vector is present for its PC
// (instruction-level reusable with this finite table) and records the
// vector.  Side-effecting instructions are never reusable and never
// recorded.
//
// The order of vectors inside a slot is unobservable — they are distinct,
// so at most one matches, and their last-use ticks are unique, so the LRU
// victim is too — which lets a new vector overwrite the victim in place.
func (b *IRB) TestAndRecord(e *trace.Exec) bool {
	if e.SideEffect {
		return false
	}
	b.tests++
	b.tick++
	set := int(e.PC) & (b.geom.Sets - 1)
	var slot *irbSlot
	for _, s := range b.sets[set] {
		if s.pc == e.PC {
			slot = s
			break
		}
	}
	if slot == nil {
		if len(b.sets[set]) >= b.geom.PCWays {
			// Nothing outside the IRB holds a slot: recycle the victim.
			slot = b.evictLRUSlot(set)
			slot.pc, slot.sigs, slot.fps = e.PC, slot.sigs[:0], slot.fps[:0]
		} else {
			slot = &irbSlot{pc: e.PC}
		}
		b.sets[set] = append(b.sets[set], slot)
	}
	slot.lastUse = b.tick

	sig := irbSig{n: e.NIn, lastUse: b.tick}
	copy(sig.in[:], e.Inputs())
	fp := irbFingerprint(e.Inputs())
	for i, f := range slot.fps {
		if f == fp && slot.sigs[i].n == sig.n && slot.sigs[i].in == sig.in {
			slot.sigs[i].lastUse = b.tick
			b.hits++
			return true
		}
	}
	if len(slot.sigs) < b.geom.TracesPerPC {
		slot.sigs = append(slot.sigs, sig)
		slot.fps = append(slot.fps, fp)
		return false
	}
	victim, vi := uint64(1)<<63, -1
	for i := range slot.sigs {
		if slot.sigs[i].lastUse < victim {
			victim, vi = slot.sigs[i].lastUse, i
		}
	}
	slot.sigs[vi], slot.fps[vi] = sig, fp
	return false
}

// HitRate returns the fraction of tests that found their input vector.
func (b *IRB) HitRate() float64 {
	if b.tests == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.tests)
}

// evictLRUSlot removes the least-recently-used slot of set and returns it.
func (b *IRB) evictLRUSlot(set int) *irbSlot {
	victim, vi := uint64(1)<<63, -1
	for i, s := range b.sets[set] {
		if s.lastUse < victim {
			victim, vi = s.lastUse, i
		}
	}
	slot := b.sets[set][vi]
	b.sets[set] = append(b.sets[set][:vi], b.sets[set][vi+1:]...)
	b.slotEvicts++
	return slot
}
