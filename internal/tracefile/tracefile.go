// Package tracefile serialises dynamic instruction streams to a compact
// binary format — the repository's equivalent of the ATOM trace files the
// paper's toolflow produced.  Every reuse engine consumes trace.Exec
// records, so a recorded stream can be re-analysed offline without
// re-simulating; the tlr facade exposes this as first-class trace
// sources (record/replay), and cmd/tlrtrace and cmd/tlrserve move the
// files around.
//
// Two record encodings exist.  The canonical encoding (versions 1-2,
// and the domain of the content digest):
//
//	record := flags:u8 op:u8 lat:u8 pc:uvarint [next:uvarint]
//	          {loc:uvarint val:uvarint} * (nIn + nOut)
//
// flags packs nIn (2 bits), nOut (2 bits), SideEffect (1 bit) and a
// "next is sequential" bit that elides the common next == pc+1 case.
// Values and locations are raw uvarints; typical records are 6-20 bytes,
// roughly 10x smaller than the in-memory form.
//
// The version-3 encoding (see v3.go) re-expresses the same records as
// block-grouped deltas — zigzag PC deltas, a per-trace operand-location
// dictionary, per-location value deltas — that are both smaller and
// faster to decode.  The version-4 encoding (see v4.go) keeps the v3
// delta and dictionary scheme but splits each block of records into
// per-field byte planes, so decoding runs in tight branch-light loops
// at below simulator-step cost; it is what the in-memory Trace holds
// and what Recorder-produced containers carry.
//
// Four container versions carry the records after the 8-byte magic and
// 4-byte version: version 1 is a bare canonical stream (records to EOF);
// version 2 prefixes the record count, a sha256 content digest and a
// skip index to the canonical stream; versions 3 and 4 prefix count,
// digest, canonical size and the location dictionary to the
// flate-compressed record payload (v3 record bytes or v4 plane-split
// blocks respectively).  The package reads all four, to the same
// digest, and writes version 4 only; docs/FORMAT.md is the normative
// byte-level spec.
package tracefile

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// Magic identifies a trace file.
var Magic = [8]byte{'T', 'L', 'R', 'T', 'R', 'A', 'C', 'E'}

// Version is the bare-stream container version: canonical records to
// EOF, with no header beyond the magic and version.
const Version uint32 = 1

// Version2 is the indexed container version: record count, content
// digest and skip index before the canonical record stream.
const Version2 uint32 = 2

// Version3 is the compressed delta container version: record count,
// content digest, canonical size and location dictionary before the
// flate-framed v3 record bytes.
const Version3 uint32 = 3

// Version4 is the plane-split container version, the only one the
// package writes (Trace.WriteTo, SpoolToDir): the same prelude as
// version 3 before the flate-framed v4 plane-split block bytes (see
// v4.go).
const Version4 uint32 = 4

const (
	flagNInShift  = 0 // 2 bits
	flagNOutShift = 2 // 2 bits
	flagSideEff   = 1 << 4
	flagSeqNext   = 1 << 5

	// flagUnused are the flag bits no canonical writer emits; canonical
	// decoders reject records carrying them so every accepted byte is
	// load-bearing (corrupt or tampered streams cannot hide in ignored
	// bits).  The v3 encoding assigns both bits (see v3.go), leaving it
	// no unused bits to police.
	flagUnused = 0xff &^ (3<<flagNInShift | 3<<flagNOutShift | flagSideEff | flagSeqNext)
)

// ErrBadMagic reports a stream that is not a trace file.
var ErrBadMagic = errors.New("tracefile: bad magic")

// ErrBadVersion reports an unsupported format version.
var ErrBadVersion = errors.New("tracefile: unsupported version")

// Reader streams execution records from an io.Reader.  It accepts all
// four container versions; Version reports which one it found.
type Reader struct {
	r   *bufio.Reader // the raw container stream
	src *bufio.Reader // record source: r for v1/v2, the inflated payload for v3/v4
	n   uint64
	off int64 // v1/v2: bytes consumed incl. header; v3/v4: uncompressed payload bytes consumed

	version         uint32
	declaredRecords uint64   // version >= 2: header record count
	declaredDigest  [32]byte // version >= 2: header content digest

	// version-3/4 decode state
	declaredCanonical uint64
	rawLen            uint64
	raw               *countByteReader // compressed bytes consumed, for the expansion bound
	dict              []trace.Loc
	last              [DictCap]uint64
	prevPC            uint64
	tailChecked       bool

	v4 *v4Stream // version-4 block decode state
}

// v4Stream is the Reader's version-4 decode state: the current block's
// planes (read into a reusable buffer) with their decode head, the
// dictionary and last-value tables in the fixed-size form the plane
// decoder wants, and a buffered batch backing the per-record Read
// interface.
type v4Stream struct {
	blockBuf []byte
	d        planeDec
	blk      int // index of the current block (-1 before the first)
	blkRecs  int // records in the current block
	blkDone  int // records of the current block already decoded
	dict     [DictCap]trace.Loc
	dictLen  int
	last     [DictCap]uint64
	fix      [v4FixupCap]v4Fixup
	recs     [BatchLen]trace.Exec // buffered batch for per-record Read
	bn, bpos int

	// keep makes readV4Block append each block (plane lengths, then
	// planes) to enc, recording its offset in blocks, instead of reading
	// it into a reusable buffer: how Load adopts the payload it
	// validates as the Trace's encoding.
	keep   bool
	enc    []byte
	blocks []int
}

// countByteReader counts the bytes flate consumes from the container
// stream.  It forwards ReadByte so flate reads exactly as much as the
// compressed frame holds (no over-read), which both keeps the count
// exact and leaves the stream positioned for the trailing-data check.
type countByteReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countByteReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// maxV3Expansion bounds how much a v3 payload may inflate relative to
// the compressed bytes feeding it (plus a flat allowance for small
// files).  Real traces inflate well under 10:1; flate can reach
// ~1000:1 on crafted input, so without this bound a small upload could
// cost the server gigabytes before any store budget applies.  The
// decoder enforces it incrementally, so a bomb is rejected as soon as
// it exceeds the ratio, not after it has been inflated.
const (
	maxV3Expansion      = 32
	maxV3ExpansionSlack = 1 << 20
)

// maxIndexEntries bounds the version-2 index a Reader will buffer; it
// admits traces of ~17 billion records, far beyond anything the store
// accepts, while keeping a hostile header from allocating gigabytes.
const maxIndexEntries = 1 << 22

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var v [4]byte
	if _, err := io.ReadFull(br, v[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading version: %w", err)
	}
	rd := &Reader{r: br, src: br, off: 12, version: binary.LittleEndian.Uint32(v[:])}
	switch rd.version {
	case Version:
		return rd, nil
	case Version2:
		if err := rd.readV2Header(); err != nil {
			return nil, err
		}
		return rd, nil
	case Version3:
		if err := rd.readCompressedHeader(2); err != nil {
			return nil, err
		}
		return rd, nil
	case Version4:
		if err := rd.readCompressedHeader(4); err != nil {
			return nil, err
		}
		rd.v4 = &v4Stream{blk: -1, dictLen: len(rd.dict)}
		copy(rd.v4.dict[:], rd.dict)
		return rd, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, rd.version)
	}
}

// Version reports the container version of the stream being read.
func (r *Reader) Version() uint32 { return r.version }

// readV2Header consumes the version-2 prelude: record count, digest and
// skip index.  A streaming Reader has no use for the index (it cannot
// seek), so the entries are validated for sanity and discarded.
func (r *Reader) readV2Header() error {
	var u8 [8]byte
	if _, err := io.ReadFull(r.r, u8[:]); err != nil {
		return fmt.Errorf("tracefile: reading record count: %w", eofToUnexpected(err))
	}
	r.declaredRecords = binary.LittleEndian.Uint64(u8[:])
	if _, err := io.ReadFull(r.r, r.declaredDigest[:]); err != nil {
		return fmt.Errorf("tracefile: reading digest: %w", eofToUnexpected(err))
	}
	var u4 [4]byte
	if _, err := io.ReadFull(r.r, u4[:]); err != nil {
		return fmt.Errorf("tracefile: reading index interval: %w", eofToUnexpected(err))
	}
	if got := binary.LittleEndian.Uint32(u4[:]); got != IndexInterval {
		return fmt.Errorf("tracefile: unsupported index interval %d (want %d)", got, IndexInterval)
	}
	if _, err := io.ReadFull(r.r, u4[:]); err != nil {
		return fmt.Errorf("tracefile: reading index length: %w", eofToUnexpected(err))
	}
	nIndex := binary.LittleEndian.Uint32(u4[:])
	if nIndex > maxIndexEntries {
		return fmt.Errorf("tracefile: index declares %d entries (limit %d)", nIndex, maxIndexEntries)
	}
	if want := (r.declaredRecords + IndexInterval - 1) / IndexInterval; uint64(nIndex) != want {
		return fmt.Errorf("tracefile: index holds %d entries for %d records (want %d)",
			nIndex, r.declaredRecords, want)
	}
	for i := uint32(0); i < nIndex; i++ {
		if _, err := io.ReadFull(r.r, u8[:]); err != nil {
			return fmt.Errorf("tracefile: reading index entry %d: %w", i, eofToUnexpected(err))
		}
	}
	r.off += 8 + 32 + 4 + 4 + 8*int64(nIndex)
	return nil
}

// readCompressedHeader consumes the version-3/4 prelude — record count,
// digest, canonical size, payload length and location dictionary — then
// points the record source at the inflated payload.  Every declared
// quantity is bounded before anything is allocated or inflated, so a
// hostile header cannot turn a small upload into unbounded work.
// minPerRecord is the version's guaranteed payload bytes per record (2
// for v3: flags+op; 4 for v4: one byte in each per-record plane), used
// to reject record counts the payload cannot hold.
func (r *Reader) readCompressedHeader(minPerRecord uint64) error {
	var u8 [8]byte
	if _, err := io.ReadFull(r.r, u8[:]); err != nil {
		return fmt.Errorf("tracefile: reading record count: %w", eofToUnexpected(err))
	}
	r.declaredRecords = binary.LittleEndian.Uint64(u8[:])
	if _, err := io.ReadFull(r.r, r.declaredDigest[:]); err != nil {
		return fmt.Errorf("tracefile: reading digest: %w", eofToUnexpected(err))
	}
	if _, err := io.ReadFull(r.r, u8[:]); err != nil {
		return fmt.Errorf("tracefile: reading canonical size: %w", eofToUnexpected(err))
	}
	r.declaredCanonical = binary.LittleEndian.Uint64(u8[:])
	if _, err := io.ReadFull(r.r, u8[:]); err != nil {
		return fmt.Errorf("tracefile: reading payload length: %w", eofToUnexpected(err))
	}
	r.rawLen = binary.LittleEndian.Uint64(u8[:])
	if r.rawLen > maxV3Payload {
		return fmt.Errorf("tracefile: payload declares %d bytes (limit %d)", r.rawLen, int64(maxV3Payload))
	}
	if r.declaredRecords > r.rawLen/minPerRecord {
		return fmt.Errorf("tracefile: %d-byte payload cannot hold %d records", r.rawLen, r.declaredRecords)
	}
	var u4 [4]byte
	if _, err := io.ReadFull(r.r, u4[:]); err != nil {
		return fmt.Errorf("tracefile: reading dictionary length: %w", eofToUnexpected(err))
	}
	dictLen := binary.LittleEndian.Uint32(u4[:])
	if dictLen > DictCap {
		return fmt.Errorf("tracefile: dictionary declares %d entries (limit %d)", dictLen, DictCap)
	}
	r.dict = make([]trace.Loc, dictLen)
	for i := range r.dict {
		rot, err := binary.ReadUvarint(r.r)
		if err != nil {
			return fmt.Errorf("tracefile: reading dictionary entry %d: %w", i, eofToUnexpected(err))
		}
		if rot&3 == 3 {
			return fmt.Errorf("tracefile: dictionary entry %d has undefined location kind", i)
		}
		r.dict[i] = unrotLoc(rot)
	}
	r.raw = &countByteReader{br: r.r}
	r.src = bufio.NewReaderSize(flate.NewReader(r.raw), 1<<15)
	r.off = 0 // v3/v4 offsets are relative to the uncompressed payload
	return nil
}

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readByte consumes one record-stream byte, keeping the offset current.
func (r *Reader) readByte() (byte, error) {
	b, err := r.src.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

// ReadByte makes Reader an io.ByteReader for binary.ReadUvarint while
// keeping the offset accurate.
func (r *Reader) ReadByte() (byte, error) { return r.readByte() }

// Read fills e with the next record.  It returns io.EOF cleanly at the
// end of the stream and io.ErrUnexpectedEOF on truncation.  Decode
// errors carry the record's index and byte offset — within the file for
// versions 1-2, within the uncompressed payload for versions 3-4 — so a
// corrupt stream (e.g. a damaged upload) is diagnosable down to the
// byte.
func (r *Reader) Read(e *trace.Exec) error {
	if r.version == Version4 {
		return r.readV4(e)
	}
	if r.version == Version3 {
		return r.readV3(e)
	}
	start := r.off
	flags, err := r.readByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return r.errAt(start, err)
	}
	op, err := r.readByte()
	if err != nil {
		return r.trunc(start, err)
	}
	lat, err := r.readByte()
	if err != nil {
		return r.trunc(start, err)
	}
	if flags&flagUnused != 0 {
		return r.errAt(start, fmt.Errorf("unknown flag bits %#x", flags&flagUnused))
	}
	nIn := int(flags>>flagNInShift) & 3
	nOut := int(flags>>flagNOutShift) & 3
	if nIn > len(e.In) || nOut > len(e.Out) {
		return r.errAt(start, fmt.Errorf("ref counts %d/%d out of range", nIn, nOut))
	}

	e.Reset()
	e.Op = isa.Op(op)
	if !e.Op.Valid() {
		return r.errAt(start, fmt.Errorf("undefined op %d", op))
	}
	e.Lat = lat
	e.SideEffect = flags&flagSideEff != 0
	if e.PC, err = binary.ReadUvarint(r); err != nil {
		return r.trunc(start, err)
	}
	if flags&flagSeqNext != 0 {
		e.Next = e.PC + 1
	} else if e.Next, err = binary.ReadUvarint(r); err != nil {
		return r.trunc(start, err)
	}
	for i := 0; i < nIn; i++ {
		loc, val, err := r.readRef(start)
		if err != nil {
			return err
		}
		e.AddIn(loc, val)
	}
	for i := 0; i < nOut; i++ {
		loc, val, err := r.readRef(start)
		if err != nil {
			return err
		}
		e.AddOut(loc, val)
	}
	r.n++
	return nil
}

// readV3 decodes one version-3 record from the inflated payload,
// mirroring decodeRun record for record (block-boundary state
// resets included) so a streamed file and an in-memory Trace decode
// identically.
func (r *Reader) readV3(e *trace.Exec) error {
	if r.n >= r.declaredRecords {
		return r.payloadTail()
	}
	if r.n%BlockLen == 0 {
		r.prevPC = 0
		clear(r.last[:len(r.dict)])
	}
	start := r.off
	rl, err := r.readByte()
	if err != nil {
		return r.trunc(start, err)
	}
	if rl < 3 {
		return r.errAt(start, fmt.Errorf("record length %d too short", rl))
	}
	flags, err := r.readByte()
	if err != nil {
		return r.trunc(start, err)
	}
	op, err := r.readByte()
	if err != nil {
		return r.trunc(start, err)
	}
	nIn := int(flags>>flagNInShift) & 3
	nOut := int(flags>>flagNOutShift) & 3
	if nIn > len(e.In) || nOut > len(e.Out) {
		return r.errAt(start, fmt.Errorf("ref counts %d/%d out of range", nIn, nOut))
	}
	e.Reset()
	e.Op = isa.Op(op)
	if !e.Op.Valid() {
		return r.errAt(start, fmt.Errorf("undefined op %d", op))
	}
	e.SideEffect = flags&flagSideEff != 0
	if flags&flagV3LatImplied != 0 {
		e.Lat = latByOp[op]
	} else {
		lat, err := r.readByte()
		if err != nil {
			return r.trunc(start, err)
		}
		e.Lat = lat
	}
	if flags&flagV3SeqPC != 0 {
		e.PC = r.prevPC + 1
	} else {
		pcz, err := binary.ReadUvarint(r)
		if err != nil {
			return r.trunc(start, err)
		}
		e.PC = r.prevPC + uint64(unzig(pcz))
	}
	if flags&flagSeqNext != 0 {
		e.Next = e.PC + 1
	} else {
		nz, err := binary.ReadUvarint(r)
		if err != nil {
			return r.trunc(start, err)
		}
		e.Next = e.PC + uint64(unzig(nz))
	}
	escape := uint64(len(r.dict)) << 1
	for k := 0; k < nIn+nOut; k++ {
		code, err := binary.ReadUvarint(r)
		if err != nil {
			return r.trunc(start, err)
		}
		var ref trace.Ref
		switch {
		case code < escape:
			di := code >> 1
			if code&1 == 0 {
				ref = trace.Ref{Loc: r.dict[di], Val: r.last[di]}
				break
			}
			dz, err := binary.ReadUvarint(r)
			if err != nil {
				return r.trunc(start, err)
			}
			val := r.last[di] + uint64(unzig(dz))
			r.last[di] = val
			ref = trace.Ref{Loc: r.dict[di], Val: val}
		case code == escape:
			rot, err := binary.ReadUvarint(r)
			if err != nil {
				return r.trunc(start, err)
			}
			if rot&3 == 3 {
				return r.errAt(start, fmt.Errorf("escaped location has undefined kind"))
			}
			val, err := binary.ReadUvarint(r)
			if err != nil {
				return r.trunc(start, err)
			}
			ref = trace.Ref{Loc: unrotLoc(rot), Val: val}
		default:
			return r.errAt(start, fmt.Errorf("location code %d out of range (%d dictionary entries)", code, len(r.dict)))
		}
		if k < nIn {
			e.AddIn(ref.Loc, ref.Val)
		} else {
			e.AddOut(ref.Loc, ref.Val)
		}
	}
	if r.off > int64(r.rawLen) {
		return r.errAt(start, fmt.Errorf("record extends past the declared %d-byte payload", r.rawLen))
	}
	if r.off > r.raw.n*maxV3Expansion+maxV3ExpansionSlack {
		return r.errAt(start, fmt.Errorf(
			"payload inflates %d bytes from %d compressed (limit %dx): decompression bomb",
			r.off, r.raw.n, maxV3Expansion))
	}
	if got := r.off - start; got != int64(rl) {
		return r.errAt(start, fmt.Errorf("record body spans %d bytes, length byte promises %d", got, rl))
	}
	r.prevPC = e.PC
	r.n++
	return nil
}

// payloadTail runs the end-of-stream checks shared by the compressed
// containers (versions 3 and 4) once, then reports io.EOF.  The
// declared final record must also end the compressed frame, and the
// frame must end the container: a payload that is shorter or longer
// than declared, a frame with data after the final record, or container
// bytes after the frame all mean corruption (or a hiding place), not a
// short read.
func (r *Reader) payloadTail() error {
	if !r.tailChecked {
		r.tailChecked = true
		if r.off != int64(r.rawLen) {
			return fmt.Errorf("tracefile: payload holds %d bytes after the final record, header declares %d", r.off, r.rawLen)
		}
		if _, err := r.src.ReadByte(); err != io.EOF {
			if err == nil {
				return fmt.Errorf("tracefile: trailing data after %d records", r.declaredRecords)
			}
			return fmt.Errorf("tracefile: closing compressed frame: %w", err)
		}
		// flate pulls from r.r byte-at-a-time (bufio.Reader is an
		// io.ByteReader), so at frame EOF the container stream sits
		// exactly past the compressed bytes: anything left is
		// trailing garbage the frame check above cannot see.
		if _, err := r.r.ReadByte(); err != io.EOF {
			if err == nil {
				return fmt.Errorf("tracefile: trailing data after the compressed frame")
			}
			return fmt.Errorf("tracefile: reading past the compressed frame: %w", err)
		}
	}
	return io.EOF
}

// readV4 delivers one version-4 record from the buffered batch,
// decoding the next run of the current block when the buffer drains.
func (r *Reader) readV4(e *trace.Exec) error {
	s := r.v4
	if s.bpos >= s.bn {
		n, err := r.readBatchV4(s.recs[:])
		if err != nil {
			return err
		}
		s.bn, s.bpos = n, 0
	}
	*e = s.recs[s.bpos]
	s.bpos++
	return nil
}

// readBatchV4 decodes up to len(recs) version-4 records into recs,
// never crossing a block boundary, and returns how many it decoded.  It
// returns io.EOF cleanly (after the tail checks) at the end of the
// stream.  Records() runs at the decoded count, which may be ahead of
// what Read has delivered while a batch is buffered; the two agree at
// every block boundary and at EOF.
func (r *Reader) readBatchV4(recs []trace.Exec) (int, error) {
	s := r.v4
	if s.blkDone == s.blkRecs {
		if r.n >= r.declaredRecords {
			return 0, r.payloadTail()
		}
		if err := r.loadV4Block(); err != nil {
			return 0, err
		}
	}
	count := s.blkRecs - s.blkDone
	if count > len(recs) {
		count = len(recs)
	}
	base := uint64(s.blk)*BlockLen + uint64(s.blkDone)
	if err := decodeV4Run(&s.d, base, s.blkDone, count, &s.dict, s.dictLen, &s.last, &s.fix, recs[:count]); err != nil {
		return 0, err
	}
	s.blkDone += count
	r.n += uint64(count)
	if s.blkDone == s.blkRecs {
		if err := s.d.checkConsumed(s.blk); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// loadV4Block reads and validates the next block (readV4Block), then
// points the streaming decode head at it.
func (r *Reader) loadV4Block() error {
	s := r.v4
	b, err := r.readV4Block(&s.blockBuf)
	if err != nil {
		return err
	}
	s.d.reset(b)
	clear(s.last[:s.dictLen])
	s.blkRecs = len(b.flags)
	s.blkDone = 0
	return nil
}

// readV4Block reads and validates the next block's header and planes
// from the inflated payload and returns the block sliced over the bytes
// it read: onto the kept encoding in keep mode (keepBlock), otherwise
// into *scratch, which it grows as needed.  All seven
// declared plane lengths are bounded before any plane byte is read, and
// the block must fit the declared payload; the expansion bound is
// enforced per block, and the flags and ops planes are validated.
// Every failure — a bad or over-declared plane length, a frame that
// overruns the payload, a truncated plane — names the block's first
// record and the payload offset the block header starts at, so a
// damaged file is diagnosable down to the byte.  This is all of a
// block's checking that needs the payload in order; decoding the block
// (decodeV4Run, checkConsumed) needs only the block itself.
func (r *Reader) readV4Block(scratch *[]byte) (v4Block, error) {
	s := r.v4
	s.blk++
	count := blockRecords(r.declaredRecords, s.blk)
	blockErr := func(start int64, err error) error {
		return fmt.Errorf("tracefile: record %d (offset %d): block %d: %w",
			uint64(s.blk)*BlockLen, start, s.blk, err)
	}
	start := r.off
	var lens v4PlaneLens
	for i := range lens {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return v4Block{}, blockErr(start, fmt.Errorf("reading %s plane length: %w",
				v4PlaneNames[i], eofToUnexpected(err)))
		}
		if l > r.rawLen {
			return v4Block{}, blockErr(start, fmt.Errorf("%s plane declares %d bytes beyond the %d-byte payload",
				v4PlaneNames[i], l, r.rawLen))
		}
		lens[i] = int(l)
	}
	if err := checkV4PlaneLens(count, lens); err != nil {
		return v4Block{}, blockErr(start, err)
	}
	size := v4BlockSize(count, lens)
	if r.off+int64(size) > int64(r.rawLen) {
		return v4Block{}, blockErr(start, fmt.Errorf("%d plane bytes at offset %d extend past the declared %d-byte payload",
			size, r.off, r.rawLen))
	}
	var buf []byte
	if s.keep {
		buf = s.keepBlock(lens, size, r.rawLen, r.raw.n*maxV3Expansion+maxV3ExpansionSlack)
	} else {
		if cap(*scratch) < size {
			*scratch = make([]byte, size)
		}
		buf = (*scratch)[:size]
	}
	if _, err := io.ReadFull(r.src, buf); err != nil {
		return v4Block{}, blockErr(start, fmt.Errorf("reading %d plane bytes: %w", size, eofToUnexpected(err)))
	}
	r.off += int64(size)
	if r.off > r.raw.n*maxV3Expansion+maxV3ExpansionSlack {
		return v4Block{}, fmt.Errorf("tracefile: payload inflates %d bytes from %d compressed (limit %dx): decompression bomb",
			r.off, r.raw.n, maxV3Expansion)
	}
	b := sliceV4Block(buf, count, lens)
	if err := validateV4RecPlanes(b.flags, b.ops, uint64(s.blk)*BlockLen); err != nil {
		return v4Block{}, err
	}
	return b, nil
}

// keepBlock appends a block's plane lengths to enc, records the block's
// offset, and returns the size-byte region of enc its planes are read
// into.  Growth goes at least to double, and at once to allow — what
// the compressed bytes read so far may inflate to under the expansion
// bound, so a large payload is copied about once, not once per
// doubling — but never past the declared payload length, so an honest
// container's encoding ends exactly full and a lying header costs at
// most what the bytes that arrived are allowed to inflate to, or twice
// what did; a block that fits the declared payload (readV4Block
// checks) always fits that bound, since the lengths are rewritten as
// minimal uvarints.  Blocks already handed to verifyV4's workers keep
// reading the array they were sliced from, which growth copies but
// never writes.
func (s *v4Stream) keepBlock(lens v4PlaneLens, size int, rawLen uint64, allow int64) []byte {
	s.blocks = append(s.blocks, len(s.enc))
	var hdr [len(lens) * maxUvarintLen]byte
	h := hdr[:0]
	for _, l := range lens {
		h = binary.AppendUvarint(h, uint64(l))
	}
	off := len(s.enc) + len(h)
	if need := off + size; need > cap(s.enc) {
		grown := make([]byte, len(s.enc), max(need, min(max(2*cap(s.enc), int(allow)), int(rawLen))))
		copy(grown, s.enc)
		s.enc = grown
	}
	s.enc = append(s.enc, h...)[:off+size]
	return s.enc[off:]
}

// checkDeclared verifies what a version 2-4 header declares — record
// count, content digest and (v3/v4) canonical size — against what the
// stream held; a mismatch means the file was corrupted or tampered with.
func (r *Reader) checkDeclared(records uint64, sum [32]byte, canonical int64) error {
	if r.version >= Version2 {
		if records != r.declaredRecords {
			return fmt.Errorf("tracefile: header declares %d records, stream holds %d", r.declaredRecords, records)
		}
		if sum != r.declaredDigest {
			return fmt.Errorf("tracefile: content digest mismatch: header %s%x, stream %s%x",
				DigestPrefix, r.declaredDigest, DigestPrefix, sum)
		}
	}
	if r.version >= Version3 && uint64(canonical) != r.declaredCanonical {
		return fmt.Errorf("tracefile: header declares %d canonical bytes, stream holds %d",
			r.declaredCanonical, canonical)
	}
	return nil
}

// readBatch fills recs with consecutive records and returns how many it
// delivered, or (0, io.EOF) at the end of the stream.  For version-4
// streams a batch decodes directly into recs through the plane decoder
// (after draining anything Read left buffered); for versions 1-3 it
// loops the per-record Read.  FileStream drives replay through this so
// batched consumers skip the per-record copy.
func (r *Reader) readBatch(recs []trace.Exec) (int, error) {
	if r.version == Version4 {
		s := r.v4
		if s.bpos < s.bn {
			n := copy(recs, s.recs[s.bpos:s.bn])
			s.bpos += n
			return n, nil
		}
		return r.readBatchV4(recs)
	}
	n := 0
	for n < len(recs) {
		switch err := r.Read(&recs[n]); err {
		case nil:
			n++
		case io.EOF:
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		default:
			return n, err
		}
	}
	return n, nil
}

func (r *Reader) readRef(start int64) (trace.Loc, uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, r.trunc(start, err)
	}
	loc, err := canonicalLoc(v)
	if err != nil {
		return 0, 0, r.errAt(start, err)
	}
	val, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, r.trunc(start, err)
	}
	return loc, val, nil
}

// canonicalLoc checks a location as the canonical record encoding
// spells it (the v1/v2 Reader and decodeRecord both call it): the
// undefined kind 3 (top bits 11) is rejected, as docs/FORMAT.md
// requires of every reader.  No container can carry such a location —
// the v3/v4 dictionary and literal escapes reject it too — so a
// canonical stream holding one must not load as a trace.
func canonicalLoc(v uint64) (trace.Loc, error) {
	if v>>62 == 3 {
		return 0, fmt.Errorf("location %#x has undefined kind", v)
	}
	return trace.Loc(v), nil
}

// trunc maps mid-record EOF to ErrUnexpectedEOF with context.
func (r *Reader) trunc(start int64, err error) error {
	return r.errAt(start, eofToUnexpected(err))
}

// errAt wraps a decode error with the failing record's index and byte
// offset within the stream.
func (r *Reader) errAt(start int64, err error) error {
	return fmt.Errorf("tracefile: record %d (offset %d): %w", r.n, start, err)
}

// Records returns how many records were read so far.
func (r *Reader) Records() uint64 { return r.n }

// ForEach reads the whole stream, calling fn per record; it stops early
// if fn returns false.
func (r *Reader) ForEach(fn func(*trace.Exec) bool) error {
	var e trace.Exec
	for {
		switch err := r.Read(&e); err {
		case nil:
			if !fn(&e) {
				return nil
			}
		case io.EOF:
			return nil
		default:
			return err
		}
	}
}
