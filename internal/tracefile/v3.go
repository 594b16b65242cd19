package tracefile

// The version-3 record encoding: the first delta-compressed form (the
// replay fast path until the plane-split version 4 — see v4.go —
// superseded it for in-memory traces and at-rest files; v3 files remain
// readable, and the Reader decodes them in readV3).
//
// Versions 1 and 2 carry the canonical record encoding — full uvarint
// PCs and 64-bit operand values — which makes decoding a record cost
// about three simulator steps: the stream is fat and the per-varint
// loop dominates.  Version 3 exploits what dynamic traces actually look
// like (a small set of hot operand locations, loop-local PC and value
// deltas; see PAPERS.md on the composition of reused traces) to be both
// smaller and faster to decode:
//
//   - PCs are zigzag varint deltas against the previous record's PC, so
//     sequential flow and loop back-edges cost 0-2 bytes (a dedicated
//     flag bit elides the ubiquitous pc = prev+1 case entirely).
//   - A per-trace operand-location dictionary, hottest location first,
//     shrinks hot {loc} references to a 1-byte index.  Locations beyond
//     the dictionary escape to a kind-rotated literal (the 2-bit kind
//     moves from the top of the Loc to the bottom, so escaped register
//     and memory locations are compact varints instead of 10-byte ones).
//   - Dictionary-indexed operand values are zigzag deltas against the
//     last value observed at that location, so loop-carried counters,
//     induction variables and re-read values cost 1-2 bytes.
//   - The latency byte is elided when it equals the op's architectural
//     latency (it always does for simulator-produced streams).
//
// Records are grouped into blocks of BlockLen; all delta state (previous
// PC, per-location last values) resets at each block boundary, so any
// block can be decoded knowing only the trace-wide dictionary.  That is
// what keeps deep seeks O(1): Cursor.Skip jumps straight to the target's
// block and decodes at most BlockLen-1 extra records.  Within a block,
// decoding proceeds in batches of BatchLen records — one tight loop
// fills a pooled arena per call instead of paying per-record call
// overhead — with the delta state carried across batches.  The two
// granularities are deliberately different: a small batch keeps the
// arena cache-resident, while a large block amortises the state resets
// (every reset forces each location's next value to re-encode in full,
// which for 64-bit FP bit patterns and addresses means multi-byte
// varints down the decoder's slow path).
//
// v3 record layout (after the per-block state reset):
//
//	record := len:u8 flags:u8 op:u8 [lat:u8] [pcz:uvarint] [nextz:uvarint]
//	          ref * (nIn + nOut)
//	ref    := code:uvarint
//	          code <  2*len(dict), code even: dict[code>>1], value
//	              unchanged (the location's last value; no bytes follow)
//	          code <  2*len(dict), code odd:  dict[code>>1], then
//	              valz:uvarint (zigzag delta vs the location's last value)
//	          code == 2*len(dict): rot:uvarint val:uvarint (escape: literal)
//
// The changed/unchanged bit lives in the code's low bit because about
// two thirds of dynamic operand references re-observe the location's
// previous value (loop invariants, values read back by the next
// iteration): those references cost one byte total and skip the value
// varint entirely.
//
// len is the record's total encoded size including the len byte itself
// (every record fits 255 bytes by construction: at most 5 operand
// references of at most 22 bytes each plus a 25-byte header).  It buys
// decode speed, not density: without it, the byte position of record
// i+1 is known only after every varint of record i has been parsed — a
// load-to-address dependency chain the processor cannot overlap.  With
// it, record starts hop len-byte to len-byte (one load and one add per
// record) and the bodies decode off the critical path, letting
// consecutive records' field parsing overlap in the out-of-order
// window.  It also gives decoders an exact frame to validate: a body
// that does not end where its length byte promised is rejected without
// cascading misparses.
//
// flags adds two bits to the canonical set: latImplied (lat byte elided,
// latency is the op's architectural latency) and seqPC (pcz elided,
// pc = previous pc + 1).  pcz is zigzag(pc - prevPC); nextz, present
// only when next != pc+1, is zigzag(next - pc).

import (
	"cmp"
	"slices"

	"github.com/tracereuse/tlr/internal/trace"
)

const (
	// BlockLen is the number of records per v3 block: the delta-state
	// reset interval and the seek granularity.
	BlockLen = 4096

	// BatchLen is the number of records the Cursor decodes per arena
	// fill: the unit of batched delivery to the replay engines.
	BatchLen = 256

	// DictCap bounds the per-trace operand-location dictionary so every
	// dictionary index fits comfortably in one or two varint bytes and
	// the decoder's last-value table is a small fixed array.  v4 names
	// the first 254 entries with a single ref-plane byte and reaches
	// the rest through two-byte wide codes, so the cap is set where the
	// second tier still beats spelling locations out as literals:
	// workloads whose operand working set overflows 256 locations
	// (ijpeg's image buffers, tomcatv's mesh arrays) keep dictionary
	// coding for the overflow instead of falling off a cliff.
	DictCap = 512

	// flagV3LatImplied elides the latency byte: the record's latency is
	// its op's architectural latency (true for every simulator-produced
	// record).
	flagV3LatImplied = 1 << 6

	// flagV3SeqPC elides the PC delta: pc = previous record's pc + 1.
	flagV3SeqPC = 1 << 7
)

// maxV3Payload bounds the uncompressed v3 payload a Reader will inflate
// (2 GiB).  A hostile header cannot make the decoder expand a small
// compressed body without bound: decoding stops with an error as soon
// as the stream passes the declared (and capped) payload length.
const maxV3Payload = 1 << 31

// zig maps a signed delta to the zigzag unsigned form (small magnitudes
// of either sign become small varints).
func zig(d int64) uint64 { return uint64(d)<<1 ^ uint64(d>>63) }

// unzig inverts zig.
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// rotLoc rotates a Loc's 2-bit kind from the top bits to the bottom, so
// escaped (non-dictionary) locations encode as compact varints: an FP
// register or memory word keeps its small index in the low-order bits
// instead of carrying the kind at bit 62.
func rotLoc(l trace.Loc) uint64 {
	v := uint64(l)
	return v<<2 | v>>62
}

// unrotLoc inverts rotLoc.
func unrotLoc(v uint64) trace.Loc { return trace.Loc(v>>2 | v<<62) }

// buildDict orders the observed operand locations hottest-first and
// keeps at most DictCap of them.  Ties break on the location value so
// the dictionary — and therefore the v3 encoding — is deterministic for
// a given stream.
func buildDict(freq *trace.LocMap[uint64]) []trace.Loc {
	type locCount struct {
		loc trace.Loc
		n   uint64
	}
	counts := make([]locCount, 0, freq.Len())
	for l, n := range freq.All() {
		counts = append(counts, locCount{l, *n})
	}
	slices.SortFunc(counts, func(a, b locCount) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return cmp.Compare(a.loc, b.loc)
	})
	locs := make([]trace.Loc, min(len(counts), DictCap))
	for i := range locs {
		locs[i] = counts[i].loc
	}
	return locs
}
