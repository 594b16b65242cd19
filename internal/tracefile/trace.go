package tracefile

// The in-memory trace: an immutable record stream held in the version-4
// plane-split encoding (see v4.go) with a content digest and per-block
// offsets.  This is the unit the service's trace store holds and the
// replay engines consume — the Reader streams records from io, but a
// Trace can be digest-addressed (stable cache keys), skipped into in
// O(1) via its block offsets, and replayed many times through a
// block-batched Cursor without re-parsing headers.
//
// The digest is computed over the *canonical* record encoding (the
// version-1 record stream; never a container header and never the v3 or
// v4 delta forms), so the same dynamic stream has the same digest
// whether it was recorded in memory or loaded from a version-1, -2, -3
// or -4 file.  The Recorder keeps the canonical bytes in block-sized
// chunks; finalising hashes them in order while the v4 blocks are
// encoded from them in parallel.  Load hashes the canonical form of
// every record it decodes: a version-4 container's blocks are decoded
// and re-encoded canonically in parallel and the chunks hashed in
// order (verify.go), its validated payload and dictionary become the
// Trace as they are, and older versions are re-recorded into the v4
// form.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// IndexInterval is the record granularity of the version-2 container's
// skip index, which the Reader checks and skips (the in-memory Trace
// seeks via its block offsets instead, at BlockLen granularity).
const IndexInterval = 4096

// DigestPrefix names the digest algorithm in a Trace digest string.
const DigestPrefix = "sha256:"

// Trace is an immutable in-memory recorded stream in the v4 encoding.
type Trace struct {
	enc       []byte // v4 plane-split encoding (no container header)
	n         uint64
	canonical int               // size of the canonical (v1 record) encoding
	sum       [sha256.Size]byte // sha256 of the canonical encoding
	digest    string            // DigestPrefix + hex of sum
	dict      []trace.Loc       // operand-location dictionary, hottest first
	blocks    []int             // blocks[i] = offset of block i (record i*BlockLen) in enc
}

// Records returns the number of records in the trace.
func (t *Trace) Records() uint64 { return t.n }

// Bytes returns the in-memory encoded size of the record stream in
// bytes (the v4 plane-split encoding — what a trace store holding this
// Trace actually spends).
func (t *Trace) Bytes() int { return len(t.enc) }

// CanonicalBytes returns the size of the stream's canonical (version-1
// record) encoding: the form the digest covers, and what a v1 or v2
// container would spend on the same stream.
func (t *Trace) CanonicalBytes() int { return t.canonical }

// DictLen returns the number of entries in the trace's operand-location
// dictionary.
func (t *Trace) DictLen() int { return len(t.dict) }

// Digest returns the content digest of the canonical record encoding,
// like "sha256:9f86d0…".  Equal streams have equal digests regardless
// of how they were recorded or which container version carried them.
func (t *Trace) Digest() string { return t.digest }

// Recorder accumulates records into an in-memory Trace: the recording
// half of the record/replay workflow (and how Load reads a version-1,
// -2 or -3 container).  It keeps the canonical encoding (the digest is
// defined over it) in chunks of exactly one v4 block each and counts
// location frequencies.  Finalisation builds the dictionary, then
// encodes the blocks independently on up to GOMAXPROCS goroutines while
// it hashes the chunks in order: v4 delta state resets at every block
// boundary, so the result is the same as one sequential transcode.
// No whole-trace buffer is ever grown: the one whole-trace allocation
// is the exactly-sized v4 encoding the blocks are assembled into.
type Recorder struct {
	chunks [][]byte // canonical encoding, BlockLen records per chunk
	n      uint64
	freq   trace.LocMap[uint64]
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return new(Recorder) }

// Write appends one record.  The signature matches the cpu.Run callback
// so a Recorder can tap the simulator's stream directly.
func (r *Recorder) Write(e *trace.Exec) {
	if r.n%BlockLen == 0 {
		// Size each chunk from the one before: consecutive blocks of one
		// stream encode to similar sizes, so most chunks never grow.
		hint := 0
		if k := len(r.chunks); k > 0 {
			hint = len(r.chunks[k-1]) + len(r.chunks[k-1])/8
		}
		r.chunks = append(r.chunks, make([]byte, 0, hint))
	}
	c := &r.chunks[len(r.chunks)-1]
	*c = appendRecord(*c, e)
	for _, ref := range e.Inputs() {
		*r.freq.At(ref.Loc)++
	}
	for _, ref := range e.Outputs() {
		*r.freq.At(ref.Loc)++
	}
	r.n++
}

// Records returns how many records were written so far.
func (r *Recorder) Records() uint64 { return r.n }

// Trace finalises the recording: build the location dictionary, encode
// every chunk to its v4 block, digest the chunks, and assemble the
// blocks into one encoding.  Every goroutine it starts has returned
// when it returns.  The Recorder must not be written to afterwards.
func (r *Recorder) Trace() *Trace {
	dict := buildDict(&r.freq)
	nb := len(r.chunks)
	// offs[i] is chunk i's offset in the canonical stream; offs[nb] is
	// the stream's size.
	offs := make([]int, nb+1)
	for i, c := range r.chunks {
		offs[i+1] = offs[i] + len(c)
	}
	out := make([][]byte, nb)
	errs := make([]error, nb)
	var next atomic.Int64
	encode := func() {
		v := newV4Encoder(dict, 0)
		for {
			i := int(next.Add(1) - 1)
			if i >= nb {
				return
			}
			out[i], errs[i] = encodeChunk(v, r.chunks[i], uint64(i)*BlockLen, offs[i])
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), nb) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			encode()
		}()
	}
	// This goroutine hashes while the others encode, then joins them.
	h := sha256.New()
	for _, c := range r.chunks {
		h.Write(c)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	encode()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Write accepts any *trace.Exec, but only records that decode
			// back (valid op, in-range ref counts, defined location kinds)
			// can be carried by any container version; a failure here is a
			// caller bug, caught at the same point a Save or WriteTo would
			// have failed before.
			// The first failing block holds the first failing record.
			panic("tracefile: Recorder holds an unencodable record: " + err.Error())
		}
	}
	var blocks []int
	size := 0
	for _, b := range out {
		blocks = append(blocks, size)
		size += len(b)
	}
	enc := make([]byte, 0, size)
	for _, b := range out {
		enc = append(enc, b...)
	}
	return newTrace(enc, blocks, dict, r.n, offs[nb], sum)
}

// encodeChunk transcodes one chunk of canonical records — block
// first/BlockLen, at offset base of the canonical stream — into a
// sealed v4 block of its own, leaving v empty for the next chunk.
func encodeChunk(v *v4Encoder, chunk []byte, first uint64, base int) ([]byte, error) {
	var e trace.Exec
	for off, i := 0, first; off < len(chunk); i++ {
		next, err := decodeRecord(chunk, off, &e)
		if err != nil {
			return nil, recErr(i, base+off, err)
		}
		off = next
		v.write(&e)
	}
	v.finish()
	blk := bytes.Clone(v.enc)
	v.enc = v.enc[:0]
	return blk, nil
}

// newTrace assembles a Trace from its v4 encoding and the identity of
// its canonical form.
func newTrace(enc []byte, blocks []int, dict []trace.Loc, n uint64, canonical int, sum [sha256.Size]byte) *Trace {
	return &Trace{
		enc:       enc,
		n:         n,
		canonical: canonical,
		sum:       sum,
		digest:    fmt.Sprintf("%s%x", DigestPrefix, sum),
		dict:      dict,
		blocks:    blocks,
	}
}

// Cursor is a read position in a Trace.  It decodes a batch of records
// at a time into a pooled arena, carrying the block's delta state
// across batches; Close returns the arena to the pool (and invalidates
// any batch NextBatch returned).  A Cursor is not safe for concurrent
// use; take one per replay.
type Cursor struct {
	t      *Trace
	pos    uint64 // index of the next record to deliver
	buf    []trace.Exec
	bstart uint64 // absolute index of buf[0]; valid only when buf != nil
	arena  *blockArena

	// Decode-head state: the position of the next undecoded record and
	// the plane decode head within its block.  Always trails by at most
	// one block: seeking restarts it at the target's block boundary.
	dPos uint64
	d    planeDec
}

// Cursor returns a new Cursor positioned at the first record.
func (t *Trace) Cursor() *Cursor { return &Cursor{t: t} }

// Pos returns the index of the next record to be read.
func (c *Cursor) Pos() uint64 { return c.pos }

// Close releases the Cursor's decode arena back to the shared pool.  It
// is optional (a dropped Cursor is garbage-collected normally) but
// keeps grid replays from growing the pool; the Cursor must not be used
// afterwards, and batches returned by NextBatch become invalid.
func (c *Cursor) Close() {
	if c.arena != nil {
		arenaPool.Put(c.arena)
		c.arena, c.buf = nil, nil
	}
}

// load advances the decode head until the batch buffer covers c.pos,
// restarting at the target's block boundary after a seek (that is the
// closest point with known delta state, so a skip decodes at most
// BlockLen-1 discarded records).
func (c *Cursor) load() error {
	if c.arena == nil {
		c.arena = arenaPool.Get().(*blockArena)
		// The pool is shared across traces (and, in a server, across
		// clients): zero the record slots once per adoption so operand
		// slots beyond a record's NIn/NOut can only ever hold residue
		// from this cursor's own trace, never another tenant's values.
		clear(c.arena.recs[:])
		// Copy the dictionary into the arena's fixed array: the decode
		// loop indexes it by (byte >> 1), which the fixed size proves
		// in-range with no bounds checks.
		clear(c.arena.dict[:])
		copy(c.arena.dict[:], c.t.dict)
	}
	if blockStart := c.pos / BlockLen * BlockLen; c.dPos < blockStart || c.dPos > c.pos {
		c.dPos = blockStart
	}
	for {
		// At a block boundary the planes re-anchor on the block table and
		// all delta state resets (also how a fresh Cursor and a post-seek
		// Cursor initialise).
		if c.dPos%BlockLen == 0 {
			blk := int(c.dPos / BlockLen)
			b, _, err := parseV4Block(c.t.enc, c.t.blocks[blk], blockRecords(c.t.n, blk))
			if err != nil {
				return err
			}
			if err := validateV4RecPlanes(b.flags, b.ops, uint64(blk)*BlockLen); err != nil {
				return err
			}
			c.d.reset(b)
			clear(c.arena.last[:len(c.t.dict)])
		}
		recIdx := int(c.dPos % BlockLen)
		count := len(c.d.b.flags) - recIdx
		if count > BatchLen {
			count = BatchLen
		}
		if err := decodeV4Run(&c.d, c.dPos, recIdx, count, &c.arena.dict, len(c.t.dict), &c.arena.last, &c.arena.fix, c.arena.recs[:count]); err != nil {
			return err
		}
		c.buf = c.arena.recs[:count]
		c.bstart = c.dPos
		c.dPos += uint64(count)
		if c.pos < c.dPos {
			return nil
		}
	}
}

// loaded reports whether c.pos falls inside the decoded block.
func (c *Cursor) loaded() bool {
	return c.buf != nil && c.pos >= c.bstart && c.pos < c.bstart+uint64(len(c.buf))
}

// Next decodes the next record into e.  It returns io.EOF cleanly at
// the end of the trace.
func (c *Cursor) Next(e *trace.Exec) error {
	if c.pos >= c.t.n {
		return io.EOF
	}
	if !c.loaded() {
		if err := c.load(); err != nil {
			return err
		}
	}
	*e = c.buf[c.pos-c.bstart]
	c.pos++
	return nil
}

// NextBatch decodes and consumes the next run of records — up to
// BatchLen of them, never crossing a block boundary — returning a slice
// that stays valid until the next Cursor call.  It returns io.EOF
// cleanly at the end of the trace.  This is the batched iterator the
// replay engines drive: one call per up-to-BatchLen records instead of
// one decode loop per record.
func (c *Cursor) NextBatch() ([]trace.Exec, error) {
	if c.pos >= c.t.n {
		return nil, io.EOF
	}
	if !c.loaded() {
		if err := c.load(); err != nil {
			return nil, err
		}
	}
	out := c.buf[c.pos-c.bstart:]
	c.pos += uint64(len(out))
	return out, nil
}

// Skip advances past up to n records without decoding anything: the
// position moves, and the next read decodes only the target's block.
// It returns how many records were actually skipped (fewer than n only
// at the end of the trace).
func (c *Cursor) Skip(n uint64) (uint64, error) {
	if rem := c.t.n - c.pos; n > rem {
		n = rem
	}
	c.pos += n
	return n, nil
}

// Run delivers up to max records to fn, polling ctx for cancellation
// once per decoded batch of up-to-BatchLen records (the replay-side
// twin of cpu.RunContext).  The records passed to fn live in the
// Cursor's arena and are overwritten by later batches; consumers that
// retain one must copy.  It returns the number of records delivered,
// stopping early without error at the end of the trace.
func (c *Cursor) Run(ctx context.Context, max uint64, fn func(*trace.Exec)) (uint64, error) {
	var n uint64
	for n < max {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		batch, err := c.NextBatch()
		switch err {
		case nil:
		case io.EOF:
			return n, nil
		default:
			return n, err
		}
		if want := max - n; uint64(len(batch)) > want {
			// Hand back the tail of the batch: the cursor position stays
			// inside the decoded block, so the next read is free.
			c.pos -= uint64(len(batch)) - want
			batch = batch[:want]
		}
		n += uint64(len(batch))
		if fn != nil {
			for i := range batch {
				fn(&batch[i])
			}
		}
	}
	return n, nil
}

// appendRecord appends the canonical encoding of e to buf.  It is the
// single definition of the canonical record format (the digest's
// domain); Recorder, Scan, Load and CanonicalEncoding share it.
func appendRecord(buf []byte, e *trace.Exec) []byte {
	flags := byte(e.NIn)<<flagNInShift | byte(e.NOut)<<flagNOutShift
	if e.SideEffect {
		flags |= flagSideEff
	}
	seq := e.Next == e.PC+1
	if seq {
		flags |= flagSeqNext
	}
	buf = append(buf, flags, byte(e.Op), e.Lat)
	buf = binary.AppendUvarint(buf, e.PC)
	if !seq {
		buf = binary.AppendUvarint(buf, e.Next)
	}
	for _, r := range e.Inputs() {
		buf = binary.AppendUvarint(buf, uint64(r.Loc))
		buf = binary.AppendUvarint(buf, r.Val)
	}
	for _, r := range e.Outputs() {
		buf = binary.AppendUvarint(buf, uint64(r.Loc))
		buf = binary.AppendUvarint(buf, r.Val)
	}
	return buf
}

// decodeRecord decodes the canonical record at enc[off:] into e and
// returns the offset of the following record.  Callers add the
// record's index and offset to an error (recErr).
func decodeRecord(enc []byte, off int, e *trace.Exec) (int, error) {
	if off+3 > len(enc) {
		return off, io.ErrUnexpectedEOF
	}
	flags, op, lat := enc[off], enc[off+1], enc[off+2]
	off += 3
	if flags&flagUnused != 0 {
		return off, fmt.Errorf("unknown flag bits %#x", flags&flagUnused)
	}
	nIn := int(flags>>flagNInShift) & 3
	nOut := int(flags>>flagNOutShift) & 3
	if nIn > len(e.In) || nOut > len(e.Out) {
		return off, fmt.Errorf("ref counts %d/%d out of range", nIn, nOut)
	}
	e.Reset()
	e.Op = isa.Op(op)
	if !e.Op.Valid() {
		return off, fmt.Errorf("undefined op %d", op)
	}
	e.Lat = lat
	e.SideEffect = flags&flagSideEff != 0
	var err error
	if e.PC, off, err = sliceUvarint(enc, off); err != nil {
		return off, err
	}
	if flags&flagSeqNext != 0 {
		e.Next = e.PC + 1
	} else if e.Next, off, err = sliceUvarint(enc, off); err != nil {
		return off, err
	}
	for i := 0; i < nIn; i++ {
		var loc, val uint64
		if loc, off, err = sliceUvarint(enc, off); err != nil {
			return off, err
		}
		l, err := canonicalLoc(loc)
		if err != nil {
			return off, err
		}
		if val, off, err = sliceUvarint(enc, off); err != nil {
			return off, err
		}
		e.In[i] = trace.Ref{Loc: l, Val: val}
	}
	e.NIn = uint8(nIn)
	for i := 0; i < nOut; i++ {
		var loc, val uint64
		if loc, off, err = sliceUvarint(enc, off); err != nil {
			return off, err
		}
		l, err := canonicalLoc(loc)
		if err != nil {
			return off, err
		}
		if val, off, err = sliceUvarint(enc, off); err != nil {
			return off, err
		}
		e.Out[i] = trace.Ref{Loc: l, Val: val}
	}
	e.NOut = uint8(nOut)
	return off, nil
}

// CanonicalDecode iterates a bare canonical (version-1/2) record
// stream, delivering each record to fn (which may be nil) and
// returning the record count.  This is the per-record decode loop that
// was the replay hot path before the v3 encoding; it is exported so
// format-comparison tooling (internal/replaybench, the decodeSpeedup
// number CI gates) can measure the old cost against the new one on the
// same stream.
func CanonicalDecode(enc []byte, fn func(*trace.Exec)) (uint64, error) {
	var e trace.Exec
	var n uint64
	off := 0
	for off < len(enc) {
		next, err := decodeRecord(enc, off, &e)
		if err != nil {
			return n, recErr(n, off, err)
		}
		off = next
		if fn != nil {
			fn(&e)
		}
		n++
	}
	return n, nil
}

// sliceUvarint reads one uvarint at enc[off:].  The one-byte case —
// the overwhelming majority of v3 deltas and dictionary indices — is
// kept small enough for the compiler to inline into the block decode
// loop, with the multi-byte and error cases outlined in
// sliceUvarintSlow: this decode runs once per varint of every replayed
// record.
func sliceUvarint(enc []byte, off int) (uint64, int, error) {
	if off < len(enc) {
		if b := enc[off]; b < 0x80 {
			return uint64(b), off + 1, nil
		}
	}
	return sliceUvarintSlow(enc, off)
}

func sliceUvarintSlow(enc []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(enc[off:])
	if n <= 0 {
		if n == 0 {
			return 0, off, io.ErrUnexpectedEOF
		}
		return 0, off, fmt.Errorf("uvarint overflows 64 bits")
	}
	return v, off + n, nil
}

// recErr wraps a decode error with the record's index and byte offset
// (relative to the start of the record stream), so a corrupt upload is
// diagnosable down to the byte.
func recErr(idx uint64, off int, err error) error {
	return fmt.Errorf("tracefile: record %d (offset %d): %w", idx, off, err)
}

// --- container writing ---

// countWriter counts the bytes that reach the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo serialises the trace as a version-4 container: the header
// (see writeCompressedHeader), then the flate-compressed plane-split
// record bytes.  Version 4 is the only container the package writes;
// its readers accept all four.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if err := writeCompressedHeader(bw, t.n, t.sum, uint64(t.canonical), uint64(len(t.enc)), t.dict); err != nil {
		return cw.n, err
	}
	zw, err := flate.NewWriter(bw, flate.DefaultCompression)
	if err != nil {
		return cw.n, err
	}
	if _, err := zw.Write(t.enc); err != nil {
		return cw.n, err
	}
	if err := zw.Close(); err != nil {
		return cw.n, err
	}
	err = bw.Flush()
	return cw.n, err
}

// Save writes the trace to a file (see WriteTo) through a temp file in
// the target's directory renamed into place, so a failure mid-write
// never leaves a truncated file at the final path.
func (t *Trace) Save(path string) error {
	return writeFileRenamed(path, func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	})
}

// CanonicalEncoding re-derives the trace's canonical record stream: the
// bytes its digest covers, and the record bytes a version-1 or -2
// container carries.  Format-comparison tooling (internal/replaybench,
// the decodeSpeedup number CI gates) decodes it with CanonicalDecode.
func (t *Trace) CanonicalEncoding() ([]byte, error) {
	canon := make([]byte, 0, t.canonical)
	cur := t.Cursor()
	defer cur.Close()
	var e trace.Exec
	for i := uint64(0); i < t.n; i++ {
		if err := cur.Next(&e); err != nil {
			return nil, err
		}
		canon = appendRecord(canon, &e)
	}
	return canon, nil
}

// Load reads a complete trace from r in any container version and
// validates every record.  A version-4 container goes through the one
// verifying pass Scan and SpoolToDir also use (verifyV4): the caller
// inflates and frames the blocks in order while up to GOMAXPROCS
// goroutines decode, check and canonically re-encode them, and the
// canonical chunks are hashed in block order; a bad container fails
// with the error a sequential read gives, its first failing block's.
// The validated payload is kept as the Trace's encoding, with the
// container's dictionary.  Older versions are re-recorded into the v4
// form.  Either way the canonical form of every record is hashed, so
// the digest is container-independent, and for version-2 and later
// input the declared record count, digest and canonical size are
// checked against the stream; a mismatch means the file was corrupted
// or tampered with.
func Load(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	if tr.version == Version4 {
		_, t, err := tr.loadV4(true)
		return t, err
	}
	rec := NewRecorder()
	if err := tr.ForEach(func(e *trace.Exec) bool {
		rec.Write(e)
		return true
	}); err != nil {
		return nil, err
	}
	t := rec.Trace()
	if err := tr.checkDeclared(t.n, t.sum, int64(t.canonical)); err != nil {
		return nil, err
	}
	return t, nil
}

// loadV4 verifies a version-4 container to its end (verifyV4) and
// returns what the pass learnt.  When keep is set the validated payload
// — each block's plane lengths, rewritten as minimal uvarints, then its
// planes (see v4Stream.keep) — becomes a Trace with the container's
// dictionary; otherwise the Trace is nil and the pass holds only the
// blocks in flight.
func (r *Reader) loadV4(keep bool) (ScanInfo, *Trace, error) {
	s := r.v4
	s.keep = keep
	if keep {
		// The payload length is declared, not yet verified: the first
		// allocation is capped at the small-file expansion allowance and
		// keepBlock grows it from there.
		s.enc = make([]byte, 0, min(r.rawLen, maxV3ExpansionSlack))
	}
	sum, canonical, err := r.verifyV4()
	if err != nil {
		return ScanInfo{}, nil, err
	}
	info := ScanInfo{
		Digest:         fmt.Sprintf("%s%x", DigestPrefix, sum),
		Records:        r.n,
		CanonicalBytes: canonical,
		Version:        Version4,
		sum:            sum,
	}
	if !keep {
		return info, nil, nil
	}
	return info, newTrace(s.enc, s.blocks, r.dict, r.n, int(canonical), sum), nil
}
