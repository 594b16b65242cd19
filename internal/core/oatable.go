package core

import (
	"encoding/binary"

	"github.com/tracereuse/tlr/internal/trace"
)

// Open-addressed hash tables for the reuse histories.  The limit-study
// classification sits on the hot path of every simulated instruction, and
// the seed's map[uint64]map[string]struct{} paid two map lookups plus a
// string allocation per miss.  sigTable flattens both levels into one
// linear-probed table keyed by (pc, signature) while keeping the exact
// byte signatures, so classification still never overcounts reuse through
// hash collisions.

const (
	// sigTableInitial is the initial slot count (power of two).
	sigTableInitial = 1024
	// sigTableMaxLoad is the grow threshold in 1/8ths: grow when
	// n*8 >= len(slots)*sigTableMaxLoad (i.e. 75% full).
	sigTableMaxLoad = 6
)

// hash64 mixes a 64-bit value (SplitMix64 finalizer); used to spread PCs
// across table slots.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sigHash hashes a (pc, signature) pair, mixing the signature 8 bytes at
// a time (signatures are 16 bytes per operand) and finishing with hash64
// so the low bits that pick a slot depend on every byte.  The result is
// forced non-zero so zero can mark empty slots.
func sigHash(pc uint64, sig []byte) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := (pc ^ uint64(len(sig))) * k
	for ; len(sig) >= 8; sig = sig[8:] {
		h = (h ^ binary.LittleEndian.Uint64(sig)) * k
		h ^= h >> 29
	}
	if len(sig) > 0 {
		var tail [8]byte
		copy(tail[:], sig)
		h = (h ^ binary.LittleEndian.Uint64(tail[:])) * k
	}
	h = hash64(h)
	if h == 0 {
		h = 1
	}
	return h
}

// sigSlot is one open-addressed slot; hash==0 means empty.  The
// signature's bytes are sigs[off:off+n] of the owning table.
type sigSlot struct {
	hash uint64
	pc   uint64
	off  int
	n    int
}

// sigTable is an open-addressed (linear probing, power-of-two capacity)
// set of (pc, signature) pairs.  Signatures are appended to one byte
// arena instead of being allocated one by one, so recording a new input
// vector allocates only when the arena or the slot array grows.
type sigTable struct {
	slots []sigSlot
	sigs  []byte
	n     int
}

// seen reports whether (pc, sig) is present, inserting it if not.  It
// returns true exactly when the pair had been added before — the reuse
// classification contract of History.Observe.
func (t *sigTable) seen(pc uint64, sig []byte) bool {
	if t.slots == nil {
		t.slots = make([]sigSlot, sigTableInitial)
	} else if t.n*8 >= len(t.slots)*sigTableMaxLoad {
		t.grow()
	}
	h := sigHash(pc, sig)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			*s = sigSlot{hash: h, pc: pc, off: len(t.sigs), n: len(sig)}
			t.sigs = append(t.sigs, sig...)
			t.n++
			return false
		}
		if s.hash == h && s.pc == pc && s.n == len(sig) && string(t.sigs[s.off:s.off+s.n]) == string(sig) {
			return true
		}
	}
}

// len returns how many pairs are stored.
func (t *sigTable) len() int { return t.n }

func (t *sigTable) grow() {
	old := t.slots
	t.slots = make([]sigSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.hash == 0 {
			continue
		}
		for i := s.hash & mask; ; i = (i + 1) & mask {
			if t.slots[i].hash == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}

// lastOutputs is an open-addressed (linear probing, power-of-two
// capacity) table from a static instruction's PC to the outputs of its
// latest execution, held inline: VPStudy's last-value table.  Recording
// an execution allocates only when the table doubles.  A PC's low bits
// pick its home slot, as they pick an RTM set: workload PCs are dense
// instruction indices, so neighbouring instructions share cache lines.
// Folding in the bits above a 4 KiB page keeps page-strided foreign PCs
// from sharing one home slot.
type lastOutputs struct {
	slots []lastOut
	n     int
}

// lastOut is one slot; used marks it taken (any PC, zero included, is a
// valid key).  Only outs[:n] is meaningful.
type lastOut struct {
	pc   uint64
	used bool
	n    uint8
	outs [len(trace.Exec{}.Out)]trace.Ref
}

// swap records outs as pc's latest outputs and reports whether pc's
// previous execution produced exactly the same ones.
func (t *lastOutputs) swap(pc uint64, outs []trace.Ref) bool {
	if t.slots == nil {
		t.slots = make([]lastOut, sigTableInitial)
	} else if t.n*8 >= len(t.slots)*sigTableMaxLoad {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := pcHome(pc) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			s.pc, s.used = pc, true
			t.n++
			s.set(outs)
			return false
		}
		if s.pc == pc {
			match := int(s.n) == len(outs)
			for j, r := range outs {
				if s.outs[j] != r {
					match = false
				}
			}
			s.set(outs)
			return match
		}
	}
}

func pcHome(pc uint64) uint64 { return pc ^ pc>>12 }

func (s *lastOut) set(outs []trace.Ref) {
	s.n = uint8(len(outs))
	for j, r := range outs {
		s.outs[j] = r
	}
}

func (t *lastOutputs) grow() {
	old := t.slots
	t.slots = make([]lastOut, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if !s.used {
			continue
		}
		i := pcHome(s.pc) & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
