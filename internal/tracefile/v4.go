package tracefile

// The version-4 record encoding: plane-split (structure-of-arrays)
// blocks, built to make decoding a record cheaper than simulating one.
//
// Version 3 (see v3.go) made records small, but its decoder still walks
// one interleaved byte stream: every field parse sits behind a
// per-record flag dispatch and a chain of variable-width reads, so the
// processor cannot overlap the decode of consecutive records and the
// per-record cost stays a multiple of a bare simulator step.  Version 4
// re-expresses the same block/delta scheme field by field: within each
// block of BlockLen records, every field lives in its own contiguous
// plane, and each plane is laid out so the overwhelmingly common case
// is a fixed one-byte read indexed directly by record (or reference)
// number:
//
//   - flags and ops: one byte per record, directly indexable.
//   - pc: one byte per record holding the zigzag PC delta against the
//     previous record (sequential flow is the constant byte 0x02);
//     deltas outside [-127, 127] store the escape byte 0xFF and spill
//     the full zigzag uvarint to the pcx plane.
//   - next: one byte per record holding zigzag(next - pc) the same way
//     (nxx holds the escapes).
//   - lat: one byte per record whose latency differs from the op's
//     architectural latency (the latImplied flag bit says which).
//   - ref: one code byte per operand reference.  Codes below 0xFE name
//     dictionary entries directly, and hottest-first ordering makes the
//     first 254 entries nearly all dynamic references.  0xFE escapes to
//     the refx plane: a uvarint code there covers the last dictionary
//     entries and (at code == len(dict)) literal locations as
//     rotated-kind + value uvarint pairs.  0xFF is never written and
//     always rejected.
//   - val: one byte per operand reference, exactly parallel to the ref
//     plane, holding the zigzag value delta against the referenced
//     location's last value — 0x00, by far the most common byte, means
//     unchanged, and flate absorbs the runs it forms.  0xFF escapes to
//     the valx plane, which holds the full value as a fixed 8-byte
//     little-endian word: values that defeat delta encoding are mostly
//     floating-point bit patterns whose deltas fill a near-maximal
//     uvarint anyway, so the fixed form costs no space and decodes
//     with a single load instead of a ten-iteration varint loop.  A
//     literal reference's slot must be 0x00 (its value rides on the
//     refx plane).
//
// The decoder is therefore a handful of tight loops with no per-record
// flag dispatch on the critical path: flags, ops, pc and next bytes are
// loaded by index (bounds checks hoisted out by slicing each plane to
// the batch once), and because ref and val advance in lockstep, a
// record's references are two parallel byte subslices covered by one
// hoisted bounds compare — the per-reference body is two loads, one
// add and two stores, with every escape a rarely-taken, well-predicted
// branch to a shared slow path.  Dictionary and last-value tables are
// fixed-size arrays indexed by the code byte itself, so their accesses
// need no bounds checks at all.
//
// Block framing.  Records are grouped into blocks of BlockLen exactly
// as in v3, with all delta state (previous PC, per-location last
// values) resetting at each block boundary; O(1) seeks work the same
// way.  One block is framed as:
//
//	block  := latLen:uvarint pcxLen:uvarint nxxLen:uvarint
//	          refLen:uvarint refxLen:uvarint valLen:uvarint valxLen:uvarint
//	          flags[count] ops[count] pcb[count] nxb[count]
//	          lat[latLen] pcx[pcxLen] nxx[nxxLen]
//	          ref[refLen] refx[refxLen] val[valLen] valx[valxLen]
//
// count is not stored: every block holds exactly BlockLen records
// except the last, which holds the remainder of the header-declared
// record count.  The four per-record planes need no declared length for
// the same reason.  Each plane length is bounded before anything is
// read (a record has at most 5 references, a uvarint at most 10 bytes),
// so a hostile header cannot make a reader allocate more than ~1 MiB
// per block; after the block's final record every plane must be
// consumed exactly, so corruption cannot hide in unread plane bytes.
//
// The version-4 container wraps these blocks exactly as version 3 wraps
// its record bytes: the same prelude (record count, canonical digest,
// canonical size, uncompressed payload length, location dictionary)
// followed by the flate-compressed concatenation of the blocks.  The
// digest still covers the canonical (v1) record encoding, so identity
// remains container-independent.  docs/FORMAT.md is the normative spec.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

const (
	// flagV4LatImplied elides the latency byte exactly as v3's flag of
	// the same position does: the record's latency is its op's
	// architectural latency.
	flagV4LatImplied = flagV3LatImplied

	// v4FlagUnused are the flag bits no v4 encoder emits (v3's seqNext
	// and seqPC positions — both elisions are structural in v4, where
	// the pc and next planes always carry a byte per record).  Decoders
	// reject records carrying them.
	v4FlagUnused = 0xff &^ (3<<flagNInShift | 3<<flagNOutShift | flagSideEff | flagV4LatImplied)

	// v4RefEscape is the ref-plane byte that defers one reference to
	// the refx plane (cold dictionary entries and literal locations).
	v4RefEscape = 0xFE

	// v4ByteEscape is the pc/next/val plane byte that defers the value
	// to the corresponding escape plane (a uvarint for pc/next, a fixed
	// 8-byte word for val).
	v4ByteEscape = 0xFF

	// maxRefsPerRecord bounds the operand references one record can
	// carry (len(Exec.In) + len(Exec.Out)); plane-length caps build on
	// it.
	maxRefsPerRecord = 5

	// maxUvarintLen mirrors binary.MaxVarintLen64 for plane-length caps.
	maxUvarintLen = 10
)

// zig8 reports whether a zigzag value fits the one-byte plane encoding
// (everything below the escape byte).
func zig8(z uint64) bool { return z < v4ByteEscape }

// unzig8 inverts the one-byte zigzag encoding (valid for b < 0xFF).
func unzig8(b byte) int64 { return int64(b>>1) ^ -int64(b&1) }

// blockRecords returns how many records block blk of an n-record trace
// holds: BlockLen for every block but the last.
func blockRecords(n uint64, blk int) int {
	rem := n - uint64(blk)*BlockLen
	if rem > BlockLen {
		return BlockLen
	}
	return int(rem)
}

// v4Block is one block's planes, sliced over the containing buffer.
type v4Block struct {
	flags, ops, pcb, nxb []byte // one byte per record
	lat                  []byte // one byte per explicit-latency record
	pcx, nxx             []byte // escaped pc / next zigzag delta uvarints
	ref                  []byte // one code byte per operand reference
	refx                 []byte // wide-reference uvarints
	val                  []byte // one delta byte per reference (parallel to ref)
	valx                 []byte // escaped value delta uvarints
}

// v4PlaneLens is the block header: the seven declared plane lengths, in
// frame order.
type v4PlaneLens [7]int

// v4PlaneNames names the declared planes in header order, for errors.
var v4PlaneNames = [7]string{"lat", "pcx", "nxx", "ref", "refx", "val", "valx"}

// checkV4PlaneLens bounds every declared plane length for a block of
// count records before anything is allocated or read: lat holds at
// most one byte per record, val exactly one byte per declared
// reference, the escape planes at most one uvarint per potential
// escapee, refx at most a short code plus two full uvarints per
// reference.
func checkV4PlaneLens(count int, lens v4PlaneLens) error {
	caps := [7]int{
		count,                           // lat
		maxUvarintLen * count,           // pcx
		maxUvarintLen * count,           // nxx
		maxRefsPerRecord * count,        // ref
		(2 + 2*maxUvarintLen) * lens[3], // refx (per declared ref)
		lens[3],                         // val (one byte per declared ref)
		8 * lens[5],                     // valx (one 8-byte word per declared val byte)
	}
	for i, l := range lens {
		if l < 0 || l > caps[i] {
			return fmt.Errorf("%s plane declares %d bytes (limit %d)", v4PlaneNames[i], l, caps[i])
		}
	}
	if lens[5] != lens[3] {
		return fmt.Errorf("val plane declares %d bytes for %d references", lens[5], lens[3])
	}
	if lens[6]%8 != 0 {
		return fmt.Errorf("valx plane declares %d bytes, not a multiple of its 8-byte words", lens[6])
	}
	return nil
}

// v4BlockSize is the byte size of a block's planes (header excluded).
func v4BlockSize(count int, lens v4PlaneLens) int {
	total := 4 * count
	for _, l := range lens {
		total += l
	}
	return total
}

// sliceV4Block carves the planes of a count-record block out of buf,
// which must hold exactly v4BlockSize bytes.
func sliceV4Block(buf []byte, count int, lens v4PlaneLens) v4Block {
	var b v4Block
	b.flags, buf = buf[:count], buf[count:]
	b.ops, buf = buf[:count], buf[count:]
	b.pcb, buf = buf[:count], buf[count:]
	b.nxb, buf = buf[:count], buf[count:]
	b.lat, buf = buf[:lens[0]], buf[lens[0]:]
	b.pcx, buf = buf[:lens[1]], buf[lens[1]:]
	b.nxx, buf = buf[:lens[2]], buf[lens[2]:]
	b.ref, buf = buf[:lens[3]], buf[lens[3]:]
	b.refx, buf = buf[:lens[4]], buf[lens[4]:]
	b.val, buf = buf[:lens[5]], buf[lens[5]:]
	b.valx = buf[:lens[6]]
	return b
}

// parseV4Block reads the block header at enc[off:] and slices the
// planes of a count-record block, returning the offset just past the
// block.  This is the in-memory (Cursor) entry point; the streaming
// Reader reads the same header incrementally instead.
func parseV4Block(enc []byte, off, count int) (v4Block, int, error) {
	var lens v4PlaneLens
	var err error
	for i := range lens {
		var l uint64
		if l, off, err = sliceUvarint(enc, off); err != nil {
			return v4Block{}, off, fmt.Errorf("tracefile: reading %s plane length: %w", v4PlaneNames[i], err)
		}
		if l > uint64(len(enc)) {
			return v4Block{}, off, fmt.Errorf("tracefile: %s plane declares %d bytes beyond the payload", v4PlaneNames[i], l)
		}
		lens[i] = int(l)
	}
	if err := checkV4PlaneLens(count, lens); err != nil {
		return v4Block{}, off, fmt.Errorf("tracefile: %w", err)
	}
	size := v4BlockSize(count, lens)
	if off+size > len(enc) {
		return v4Block{}, off, fmt.Errorf("tracefile: %d-byte block at offset %d extends past the %d-byte payload",
			size, off, len(enc))
	}
	return sliceV4Block(enc[off:off+size], count, lens), off + size, nil
}

// planeDec is the decode head within one block: the block's planes plus
// the consumption position of every sequentially-read plane and the
// previous record's PC.  The val plane has no cursor of its own — it is
// parallel to ref and shares ri.  Per-location last values live in the
// caller's arena (they are DictCap*8 bytes and shared with the
// encoder's reset discipline).
type planeDec struct {
	b                          v4Block
	li, pxi, nxi, ri, rxi, vxi int
	prevPC                     uint64
}

// reset points the decode head at the start of block b.
func (d *planeDec) reset(b v4Block) {
	*d = planeDec{b: b}
}

// checkConsumed verifies that every plane was consumed exactly after
// the block's final record — unread plane bytes mean the header
// over-declared a length, i.e. corruption with room to hide data.
func (d *planeDec) checkConsumed(blk int) error {
	got := [7]int{d.li, d.pxi, d.nxi, d.ri, d.rxi, d.ri, d.vxi}
	want := [7]int{len(d.b.lat), len(d.b.pcx), len(d.b.nxx), len(d.b.ref), len(d.b.refx), len(d.b.val), len(d.b.valx)}
	for i := range got {
		if got[i] != want[i] {
			last := uint64(blk)*BlockLen + uint64(len(d.b.flags)) - 1
			return fmt.Errorf("tracefile: record %d (%s plane offset %d): block %d plane holds %d bytes, records consumed %d",
				last, v4PlaneNames[i], got[i], blk, want[i], got[i])
		}
	}
	return nil
}

// v4Err wraps a decode error with the failing record's index and plane
// byte offset, so a corrupt block is diagnosable down to the byte.
func v4Err(idx uint64, plane string, off int, err error) error {
	return fmt.Errorf("tracefile: record %d (%s plane offset %d): %w", idx, plane, off, err)
}

// v4FlagsOK and v4OpsOK are the per-byte acceptance tables behind
// validateV4RecPlanes: a flags byte passes when it carries no unused
// bits and an output count Exec can hold; an op byte passes when it
// names a defined operation.
var v4FlagsOK, v4OpsOK [256]bool

func init() {
	for i := range v4FlagsOK {
		v4FlagsOK[i] = byte(i)&v4FlagUnused == 0 && (i>>flagNOutShift)&3 <= 2
		v4OpsOK[i] = isa.Op(i).Valid()
	}
}

// validateV4RecPlanes checks the two always-per-record planes of one
// block in a single table-driven pass: no record may carry unused flag
// bits or an output count beyond Exec's capacity, and every op byte
// must name a defined operation.  Hoisting these out of decodeV4Run
// removes three per-record compares from the replay hot loop; the pass
// itself is one predictable byte scan per 4096-record block.  base is
// the absolute index of the block's first record, for error context.
func validateV4RecPlanes(flags, ops []byte, base uint64) error {
	ops = ops[:len(flags)] // planes are count-long by construction; teach the compiler
	for i, f := range flags {
		if !v4FlagsOK[f] || !v4OpsOK[ops[i]] {
			return v4RecPlaneErr(flags, ops, i, base)
		}
	}
	return nil
}

// v4RecPlaneErr re-derives which check record i failed, off the scan's
// fast path.
func v4RecPlaneErr(flags, ops []byte, i int, base uint64) error {
	f := flags[i]
	if f&v4FlagUnused != 0 {
		return v4Err(base+uint64(i), "flags", i, fmt.Errorf("unknown flag bits %#x", f&v4FlagUnused))
	}
	if int(f>>flagNOutShift)&3 > 2 {
		return v4Err(base+uint64(i), "flags", i, fmt.Errorf("output count %d out of range", int(f>>flagNOutShift)&3))
	}
	return v4Err(base+uint64(i), "ops", i, fmt.Errorf("undefined op %d", ops[i]))
}

// The three cold plane heads — explicit latency bytes and escaped
// pc/next uvarints — are outlined behind noinline methods so their
// slices and cursors stay out of decodeV4Run's register set: the hot
// loop already keeps ~14 values live, and inlining any of these (none
// of which fires at all on typical traces) tips it into per-iteration
// spills.

//go:noinline
func (d *planeDec) latNext(idx uint64) (byte, error) {
	if d.li >= len(d.b.lat) {
		return 0, v4Err(idx, "lat", d.li, io.ErrUnexpectedEOF)
	}
	b := d.b.lat[d.li]
	d.li++
	return b, nil
}

//go:noinline
func (d *planeDec) pcxNext(idx uint64) (uint64, error) {
	dz, n, err := sliceUvarint(d.b.pcx, d.pxi)
	if err != nil {
		return 0, v4Err(idx, "pcx", d.pxi, err)
	}
	d.pxi = n
	return dz, nil
}

//go:noinline
func (d *planeDec) nxxNext(idx uint64) (uint64, error) {
	dz, n, err := sliceUvarint(d.b.nxx, d.nxi)
	if err != nil {
		return 0, v4Err(idx, "nxx", d.nxi, err)
	}
	d.nxi = n
	return dz, nil
}

// decodeV4Run decodes count consecutive records of one block into recs,
// starting at in-block record index recIdx (which the decode head must
// already have reached).  base is the absolute index of the first
// record, for error context.  dict and last are fixed-size arrays so
// the byte-indexed accesses in the hot loop need no bounds checks;
// dictLen bounds the live prefix.  The block's flags and ops planes
// must already have passed validateV4RecPlanes (both block loaders run
// it), so the loop carries no per-record flag or op checks.
//
// This is the replay hot path, and its speed comes from keeping every
// decode head in a register: all plane slices and cursor positions are
// hoisted into locals up front and committed back to d only at the
// end, so the stores into recs and last can never force the compiler
// to reload them (d, recs and last are all reachable through pointers
// and would otherwise alias every store).  The per-record body is then
// straight-line byte loads indexed off those registers: one flags byte
// drives the two operand loops, pc and next each cost one plane byte
// in the overwhelmingly common case, and because the ref and val
// planes advance in lockstep each reference is two byte loads, one
// add into the last-value table and one 16-byte Ref store.  Every
// escape — multi-byte deltas, wide dictionary codes, literal
// locations — is a rarely-taken branch that either calls an outlined
// noinline helper or records a deferred fixup with plain stores,
// keeping the fast path small enough to overlap across consecutive
// records.
func decodeV4Run(d *planeDec, base uint64, recIdx, count int, dict *[DictCap]trace.Loc, dictLen int, last *[DictCap]uint64, fix *[v4FixupCap]v4Fixup, recs []trace.Exec) error {
	if recIdx+count > len(d.b.flags) || count > len(recs) {
		return fmt.Errorf("tracefile: internal: decode run of %d records at %d exceeds block of %d", count, recIdx, len(d.b.flags))
	}
	recs = recs[:count]
	flagsB := d.b.flags[recIdx : recIdx+count]
	opsB := d.b.ops[recIdx : recIdx+count]
	pcbB := d.b.pcb[recIdx : recIdx+count]
	nxbB := d.b.nxb[recIdx : recIdx+count]
	valx := d.b.valx
	ref := d.b.ref
	val := d.b.val[:len(ref)] // parallel planes (checkV4PlaneLens): one bounds compare covers both
	ri, vxi := d.ri, d.vxi
	pc := d.prevPC
	nf := 0
	fastLim := dictLen
	if fastLim > v4RefEscape {
		fastLim = v4RefEscape
	}
	for i := range recs {
		e := &recs[i]
		flags := flagsB[i]
		op := opsB[i]
		nIn := int(flags>>flagNInShift) & 3
		nOut := int(flags>>flagNOutShift) & 3
		latv := latByOp[op]
		if flags&flagV4LatImplied == 0 {
			var err error
			if latv, err = d.latNext(base + uint64(i)); err != nil {
				return err
			}
		}
		// The four adjacent byte fields are stored as shifted lanes of
		// one word so the compiler can merge them into a single store.
		meta := uint32(op) | uint32(latv)<<8 | uint32(nIn)<<16 | uint32(nOut)<<24
		e.Op = isa.Op(meta & 0xff)
		e.Lat = uint8(meta >> 8)
		e.NIn = uint8(meta >> 16)
		e.NOut = uint8(meta >> 24)
		e.SideEffect = flags&flagSideEff != 0
		if pb := pcbB[i]; pb != v4ByteEscape {
			pc += uint64(unzig8(pb))
		} else {
			dz, err := d.pcxNext(base + uint64(i))
			if err != nil {
				return err
			}
			pc += uint64(unzig(dz))
		}
		e.PC = pc
		if nb := nxbB[i]; nb != v4ByteEscape {
			e.Next = pc + uint64(unzig8(nb))
		} else {
			dz, err := d.nxxNext(base + uint64(i))
			if err != nil {
				return err
			}
			e.Next = pc + uint64(unzig(dz))
		}
		for k := 0; k < nIn; k++ {
			if ri >= len(ref) {
				return v4Err(base+uint64(i), "ref", ri, io.ErrUnexpectedEOF)
			}
			cb := ref[ri]
			v8 := val[ri]
			ri++
			if int(cb) >= fastLim {
				if cb != v4RefEscape {
					return v4Err(base+uint64(i), "ref", ri-1,
						fmt.Errorf("reference code %#x out of range (%d dictionary entries)", cb, dictLen))
				}
				var w uint64
				if v8 == v4ByteEscape {
					if vxi+8 > len(valx) {
						return v4Err(base+uint64(i), "valx", vxi, io.ErrUnexpectedEOF)
					}
					w = binary.LittleEndian.Uint64(valx[vxi:])
					vxi += 8
				}
				fix[nf] = v4Fixup{pos: int32(ri - 1), info: uint32(i) | uint32(k)<<8 | uint32(v8)<<11, val: w}
				nf++
				continue
			}
			if v8 == v4ByteEscape {
				if vxi+8 > len(valx) {
					return v4Err(base+uint64(i), "valx", vxi, io.ErrUnexpectedEOF)
				}
				nv := binary.LittleEndian.Uint64(valx[vxi:])
				vxi += 8
				last[cb] = nv
				e.In[k] = trace.Ref{Loc: dict[cb], Val: nv}
				continue
			}
			nv := last[cb] + uint64(unzig8(v8))
			last[cb] = nv
			e.In[k] = trace.Ref{Loc: dict[cb], Val: nv}
		}
		for k := 0; k < nOut; k++ {
			if ri >= len(ref) {
				return v4Err(base+uint64(i), "ref", ri, io.ErrUnexpectedEOF)
			}
			cb := ref[ri]
			v8 := val[ri]
			ri++
			if int(cb) >= fastLim {
				if cb != v4RefEscape {
					return v4Err(base+uint64(i), "ref", ri-1,
						fmt.Errorf("reference code %#x out of range (%d dictionary entries)", cb, dictLen))
				}
				var w uint64
				if v8 == v4ByteEscape {
					if vxi+8 > len(valx) {
						return v4Err(base+uint64(i), "valx", vxi, io.ErrUnexpectedEOF)
					}
					w = binary.LittleEndian.Uint64(valx[vxi:])
					vxi += 8
				}
				fix[nf] = v4Fixup{pos: int32(ri - 1), info: uint32(i) | uint32(k)<<8 | 1<<10 | uint32(v8)<<11, val: w}
				nf++
				continue
			}
			if v8 == v4ByteEscape {
				if vxi+8 > len(valx) {
					return v4Err(base+uint64(i), "valx", vxi, io.ErrUnexpectedEOF)
				}
				nv := binary.LittleEndian.Uint64(valx[vxi:])
				vxi += 8
				last[cb] = nv
				e.Out[k] = trace.Ref{Loc: dict[cb], Val: nv}
				continue
			}
			nv := last[cb] + uint64(unzig8(v8))
			last[cb] = nv
			e.Out[k] = trace.Ref{Loc: dict[cb], Val: nv}
		}
	}
	d.ri, d.vxi = ri, vxi
	d.prevPC = pc
	if nf > 0 {
		return d.applyFixups(dict, dictLen, last, base, fix[:nf], recs)
	}
	return nil
}

// v4Fixup records one deferred wide reference: the replay hot loop
// handles only direct dictionary codes and stores everything else
// here (plain stores, no calls), and applyFixups resolves them after
// the record loop.  Deferral is sound because a wide code may only
// name a dictionary entry the direct byte range cannot reach (>= 254
// -- the encoder has no reason to widen a direct-range code, and the
// decoder rejects one), so wide references never share last-value
// state with the fast path; an escaped value word is consumed from
// valx by the hot loop itself (stashed in val), keeping that cursor
// in reference order.
type v4Fixup struct {
	pos  int32  // ref-plane offset of the code byte, for errors
	info uint32 // record index | k<<8 | isOut<<10 | v8<<11
	val  uint64 // pre-consumed valx word when v8 is the escape byte
}

// v4FixupCap bounds the fixups one decode run can defer: every
// reference of a full batch.
const v4FixupCap = maxRefsPerRecord * BatchLen

// applyFixups resolves the wide references a decode run deferred, in
// reference order: a uvarint code on the refx plane names a cold
// dictionary entry (>= the direct byte range), or -- at code ==
// len(dict) -- a literal rotated-location + value uvarint pair.
func (d *planeDec) applyFixups(dict *[DictCap]trace.Loc, dictLen int, last *[DictCap]uint64, base uint64, fix []v4Fixup, recs []trace.Exec) error {
	for _, f := range fix {
		i := int(f.info & 0xff)
		k := int(f.info >> 8 & 3)
		v8 := byte(f.info >> 11)
		idx := base + uint64(i)
		code, rxi, err := sliceUvarint(d.b.refx, d.rxi)
		if err != nil {
			return v4Err(idx, "refx", d.rxi, err)
		}
		d.rxi = rxi
		var r trace.Ref
		switch {
		case code >= uint64(v4RefEscape) && code < uint64(dictLen):
			di := int(code)
			if v8 != v4ByteEscape {
				last[di] += uint64(unzig8(v8))
			} else {
				last[di] = f.val
			}
			r = trace.Ref{Loc: dict[di], Val: last[di]}
		case code == uint64(dictLen):
			if v8 != 0 {
				return v4Err(idx, "val", int(f.pos),
					fmt.Errorf("literal location carries delta byte %#x", v8))
			}
			rot, rxi, err := sliceUvarint(d.b.refx, d.rxi)
			if err != nil {
				return v4Err(idx, "refx", d.rxi, err)
			}
			if rot&3 == 3 {
				return v4Err(idx, "refx", d.rxi, fmt.Errorf("escaped location has undefined kind"))
			}
			lv, rxi2, err := sliceUvarint(d.b.refx, rxi)
			if err != nil {
				return v4Err(idx, "refx", rxi, err)
			}
			d.rxi = rxi2
			r = trace.Ref{Loc: unrotLoc(rot), Val: lv}
		default:
			return v4Err(idx, "refx", d.rxi,
				fmt.Errorf("location code %d out of range (direct codes cover the first %d of %d dictionary entries)", code, v4RefEscape, dictLen))
		}
		if f.info>>10&1 != 0 {
			recs[i].Out[k] = r
		} else {
			recs[i].In[k] = r
		}
	}
	return nil
}

// v4Encoder transcodes a record stream into plane-split blocks.  It is
// fed records in order and owns all per-block delta state; the caller
// drains enc after each sealed block (the streaming transcode writes it
// out, the Recorder's block encoders copy it).
type v4Encoder struct {
	enc    []byte // sealed blocks (header + planes, back to back)
	dict   []trace.Loc
	idx    trace.LocMap[uint16] // dictionary index + 1; 0 = not in the dictionary
	last   [DictCap]uint64
	prevPC uint64
	cnt    int // records in the open block

	flags, ops, pcb, nxb, lat, pcx, nxx, ref, refx, val, valx []byte
}

func newV4Encoder(dict []trace.Loc, sizeHint int) *v4Encoder {
	v := &v4Encoder{dict: dict, enc: make([]byte, 0, sizeHint)}
	for i, l := range dict {
		v.idx.Set(l, uint16(i+1))
	}
	return v
}

// write appends one record to the open block, sealing the block when it
// reaches BlockLen records.
func (v *v4Encoder) write(e *trace.Exec) {
	flags := byte(e.NIn)<<flagNInShift | byte(e.NOut)<<flagNOutShift
	if e.SideEffect {
		flags |= flagSideEff
	}
	if e.Lat == latByOp[e.Op] {
		flags |= flagV4LatImplied
	} else {
		v.lat = append(v.lat, e.Lat)
	}
	v.flags = append(v.flags, flags)
	v.ops = append(v.ops, byte(e.Op))
	if dz := zig(int64(e.PC - v.prevPC)); zig8(dz) {
		v.pcb = append(v.pcb, byte(dz))
	} else {
		v.pcb = append(v.pcb, v4ByteEscape)
		v.pcx = binary.AppendUvarint(v.pcx, dz)
	}
	if dz := zig(int64(e.Next - e.PC)); zig8(dz) {
		v.nxb = append(v.nxb, byte(dz))
	} else {
		v.nxb = append(v.nxb, v4ByteEscape)
		v.nxx = binary.AppendUvarint(v.nxx, dz)
	}
	v.prevPC = e.PC
	v.refs(e.Inputs())
	v.refs(e.Outputs())
	v.cnt++
	if v.cnt == BlockLen {
		v.sealBlock()
	}
}

func (v *v4Encoder) refs(refs []trace.Ref) {
	for _, r := range refs {
		di := int(v.idx.Get(r.Loc)) - 1
		if di < 0 {
			// Literal location: escape byte, then the literal code,
			// rotated location and full value on the wide plane.  The
			// parallel val-plane slot is the mandatory 0x00.
			v.ref = append(v.ref, v4RefEscape)
			v.val = append(v.val, 0)
			v.refx = binary.AppendUvarint(v.refx, uint64(len(v.dict)))
			v.refx = binary.AppendUvarint(v.refx, rotLoc(r.Loc))
			v.refx = binary.AppendUvarint(v.refx, r.Val)
			continue
		}
		if di < v4RefEscape {
			v.ref = append(v.ref, byte(di))
		} else {
			v.ref = append(v.ref, v4RefEscape)
			v.refx = binary.AppendUvarint(v.refx, uint64(di))
		}
		// An unchanged value is the delta 0 — one 0x00 byte, no state
		// update needed, and no per-reference "changed" bit anywhere.
		if dz := zig(int64(r.Val - v.last[di])); zig8(dz) {
			v.val = append(v.val, byte(dz))
		} else {
			v.val = append(v.val, v4ByteEscape)
			v.valx = binary.LittleEndian.AppendUint64(v.valx, r.Val)
		}
		v.last[di] = r.Val
	}
}

// finish seals the open partial block (a no-op when the record count is
// an exact multiple of BlockLen, or zero).  The encoder must not be
// written to afterwards.
func (v *v4Encoder) finish() {
	if v.cnt > 0 {
		v.sealBlock()
	}
}

// sealBlock frames the open block's planes into enc and resets all
// per-block state for the next one.
func (v *v4Encoder) sealBlock() {
	for _, l := range [7]int{len(v.lat), len(v.pcx), len(v.nxx), len(v.ref), len(v.refx), len(v.val), len(v.valx)} {
		v.enc = binary.AppendUvarint(v.enc, uint64(l))
	}
	for _, p := range [11][]byte{v.flags, v.ops, v.pcb, v.nxb, v.lat, v.pcx, v.nxx, v.ref, v.refx, v.val, v.valx} {
		v.enc = append(v.enc, p...)
	}
	v.flags, v.ops, v.pcb, v.nxb = v.flags[:0], v.ops[:0], v.pcb[:0], v.nxb[:0]
	v.lat, v.pcx, v.nxx = v.lat[:0], v.pcx[:0], v.nxx[:0]
	v.ref, v.refx, v.val, v.valx = v.ref[:0], v.refx[:0], v.val[:0], v.valx[:0]
	v.prevPC = 0
	clear(v.last[:len(v.dict)])
	v.cnt = 0
}

// blockArena is the reusable decode target: one batch of records, the
// per-location last-value table, and a fixed-size copy of the trace's
// dictionary (so the hot loop's byte-derived indices need no bounds
// checks).  Cursors and streams borrow arenas from a sync.Pool so
// replaying a whole grid of requests allocates a handful of arenas
// total instead of one buffer per record or per replay.
type blockArena struct {
	recs [BatchLen]trace.Exec
	last [DictCap]uint64
	dict [DictCap]trace.Loc
	fix  [v4FixupCap]v4Fixup
}

var arenaPool = sync.Pool{New: func() any { return new(blockArena) }}

// latByOp caches each op's architectural latency in a flat table: the
// block decoder resolves an elided latency byte per record, and
// indexing one byte beats chasing the full isa.Info record each time.
var latByOp = func() (t [256]uint8) {
	for op := 0; op < isa.NumOps; op++ {
		t[op] = isa.InfoOf(isa.Op(op)).Latency
	}
	return
}()
