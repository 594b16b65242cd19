package trace

import "github.com/tracereuse/tlr/internal/isa"

// locIndex maps the locations of a Ref list to their positions in it.
// Registers, the bulk of every trace's references, index flat arrays;
// memory words, and any location a malformed stream names outside the
// register file, go to a map made on first use.  The zero value is an
// empty index.
type locIndex struct {
	reg   [2 * isa.NumRegs]int32 // position+1 per int then FP register; 0 = absent
	other map[Loc]int
}

// regSlot returns l's flat-array slot, or -1 when l lives in the map.
func regSlot(l Loc) int {
	idx := l.Index()
	if idx >= isa.NumRegs {
		return -1
	}
	switch l.Kind() {
	case KindIntReg:
		return int(idx)
	case KindFPReg:
		return isa.NumRegs + int(idx)
	}
	return -1
}

func (x *locIndex) get(l Loc) (int, bool) {
	if s := regSlot(l); s >= 0 {
		p := x.reg[s]
		return int(p) - 1, p != 0
	}
	p, ok := x.other[l]
	return p, ok
}

func (x *locIndex) has(l Loc) bool {
	_, ok := x.get(l)
	return ok
}

func (x *locIndex) set(l Loc, pos int) {
	if s := regSlot(l); s >= 0 {
		x.reg[s] = int32(pos + 1)
		return
	}
	if x.other == nil {
		x.other = make(map[Loc]int)
	}
	x.other[l] = pos
}

// drop removes the locations of refs, leaving the index empty when refs
// is the list it indexes.  Its cost follows len(refs), not how large the
// index has ever been.
func (x *locIndex) drop(refs []Ref) {
	for _, r := range refs {
		if s := regSlot(r.Loc); s >= 0 {
			x.reg[s] = 0
		} else {
			delete(x.other, r.Loc)
		}
	}
}
