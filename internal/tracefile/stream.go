package tracefile

// Streaming access to trace containers: the pieces that let a trace be
// scanned, replayed and re-encoded without ever materialising it.
//
//   - FileStream is trace.Stream over an io.Reader: it decodes any
//     container version incrementally into pooled record batches, so
//     replaying an N-record file costs O(batch) memory instead of the
//     O(N) a loaded Trace spends.
//   - Scan is the incremental-digesting pass: one read over a container
//     computes the content digest, record count and canonical size (and,
//     for the versions SpoolToDir transcodes, location frequencies) in
//     O(batch) memory, verifying the embedded header as it goes — the
//     validation half of a chunked upload.
//   - SpoolToDir couples the two: it tees an incoming container to a
//     temp file while Scan validates and digests it, then installs a
//     digest-named version-4 file (renaming a v4 upload, streaming a
//     transcode of a v1/v2/v3 one) — the write path of a disk store
//     tier.  A small v4 upload's validated payload is kept on the way
//     through, so the store can hold it in memory without a second
//     decode.

import (
	"bufio"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/tracereuse/tlr/internal/trace"
)

// canonicalHasher digests a record stream's canonical encoding
// incrementally: records are encoded into a scratch buffer that feeds
// sha256 a hashChunk at a time, instead of one small Write per record
// or the whole canonical stream a Recorder accumulates.
type canonicalHasher struct {
	h   hash.Hash
	buf []byte
	n   int64
}

// hashChunk is how many canonical bytes the hasher buffers per sha256
// Write: large enough to amortise the per-Write overhead, small enough
// to stay cache-resident.
const hashChunk = 16 << 10

func newCanonicalHasher() *canonicalHasher {
	return &canonicalHasher{h: sha256.New(), buf: make([]byte, 0, 2*hashChunk)}
}

func (c *canonicalHasher) write(e *trace.Exec) {
	start := len(c.buf)
	c.buf = appendRecord(c.buf, e)
	c.n += int64(len(c.buf) - start)
	if len(c.buf) >= hashChunk {
		c.h.Write(c.buf)
		c.buf = c.buf[:0]
	}
}

// sum flushes the buffered bytes and returns the digest.
func (c *canonicalHasher) sum() (s [32]byte) {
	c.h.Write(c.buf)
	c.buf = c.buf[:0]
	copy(s[:], c.h.Sum(nil))
	return
}

// FileStream decodes a trace container incrementally, delivering pooled
// record batches (trace.Stream).  Unlike Trace.Cursor it never holds
// more than one batch of decoded records plus the decoder's fixed
// state, so replay memory is independent of the trace's length; the
// price is that Skip must decode past the skipped records (a container
// stream cannot seek) and that the stream is one-shot — open a new one
// per replay.
type FileStream struct {
	r     *Reader
	c     io.Closer // closed by Close when the stream owns the source
	arena *blockArena
	eof   bool
}

// NewFileStream validates the container header and returns a streaming
// batch decoder over r.
func NewFileStream(r io.Reader) (*FileStream, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	arena := arenaPool.Get().(*blockArena)
	// The pool is shared across traces and tenants: zero the record
	// slots on adoption so operand slots beyond a record's NIn/NOut can
	// only hold residue from this stream (see Cursor.load).
	clear(arena.recs[:])
	return &FileStream{r: rd, arena: arena}, nil
}

// OpenFileStream opens a trace file as a FileStream; Close closes the
// file.  Disk-backed streams read through a background prefetcher
// (see readAhead) so block decode overlaps file I/O; streams over
// other readers (NewFileStream) are left untouched, since a caller's
// reader may not tolerate being read past the container's end.
func OpenFileStream(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ra := newReadAhead(f)
	s, err := NewFileStream(ra)
	if err != nil {
		ra.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.c = ra
	return s, nil
}

// NextBatch decodes and returns the next run of up to BatchLen records;
// the slice is valid until the next FileStream call.  It returns io.EOF
// cleanly at the end of the container.  Version-4 containers decode
// straight into the arena through the plane decoder (readBatch), so the
// streamed replay path runs the same tight loops as an in-memory
// Cursor; older versions fall back to the per-record decode.
func (s *FileStream) NextBatch() ([]trace.Exec, error) {
	if s.eof {
		return nil, io.EOF
	}
	if s.arena == nil {
		return nil, fmt.Errorf("tracefile: FileStream used after Close")
	}
	n, err := s.r.readBatch(s.arena.recs[:])
	switch err {
	case nil:
		return s.arena.recs[:n], nil
	case io.EOF:
		s.eof = true
		if n > 0 {
			return s.arena.recs[:n], nil
		}
		return nil, io.EOF
	default:
		return nil, err
	}
}

// Skip advances past up to n records.  The container stream cannot
// seek, so the records are decoded (a batch at a time) and discarded:
// time stays O(n) but memory stays O(batch).
func (s *FileStream) Skip(n uint64) (uint64, error) {
	if s.arena == nil {
		return 0, fmt.Errorf("tracefile: FileStream used after Close")
	}
	var done uint64
	for done < n && !s.eof {
		want := n - done
		if want > BatchLen {
			want = BatchLen
		}
		got, err := s.r.readBatch(s.arena.recs[:want])
		done += uint64(got)
		switch err {
		case nil:
		case io.EOF:
			s.eof = true
		default:
			return done, err
		}
	}
	return done, nil
}

// Close releases the decode arena and closes the underlying file (when
// the stream owns one).  The stream and any batch it returned must not
// be used afterwards.
func (s *FileStream) Close() {
	if s.arena != nil {
		arenaPool.Put(s.arena)
		s.arena = nil
	}
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
}

// OpenFile loads a complete trace file into memory (see Load).
func OpenFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// ProbeFile reads an indexed (version 2-4) container file's header
// without decoding any records: the declared digest, record count and
// (v3/v4) canonical size, with the file's path and its size from one
// fstat.  It is how a directory store rehydrates its index from
// digest-named files it wrote earlier — cheap enough to run per file at
// startup — and how an install decides whether the file already at a
// digest's name is the trace (see installed).  The header is declared,
// not verified; Probe is for files installed by a verifying writer
// (SaveToDir, SpoolToDir), and a corrupt payload still fails at replay
// time.
func ProbeFile(path string) (SpoolInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SpoolInfo{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return SpoolInfo{}, err
	}
	rd, err := NewReader(f)
	if err != nil {
		return SpoolInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	info, err := rd.header()
	if err != nil {
		return SpoolInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	info.Path, info.FileBytes = path, fi.Size()
	return info, nil
}

// header returns what an indexed (version 2-4) container's header
// declares: digest, record count and (v3/v4) canonical size.
func (r *Reader) header() (SpoolInfo, error) {
	if r.version < Version2 {
		return SpoolInfo{}, fmt.Errorf("version-%d containers carry no header to probe", r.version)
	}
	return SpoolInfo{
		Digest:         fmt.Sprintf("%s%x", DigestPrefix, r.declaredDigest),
		Records:        r.declaredRecords,
		CanonicalBytes: int64(r.declaredCanonical),
	}, nil
}

// ScanFile is Scan over a trace file on disk.
func ScanFile(path string) (ScanInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanInfo{}, err
	}
	defer f.Close()
	info, err := Scan(f)
	if err != nil {
		return ScanInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}

// ScanInfo is what one incremental pass over a container learns.
type ScanInfo struct {
	// Digest is the content digest of the canonical record encoding,
	// computed incrementally and (for version 2-4 containers) verified
	// against the header's declared digest.
	Digest string
	// Records is the number of records in the stream.
	Records uint64
	// CanonicalBytes is the size of the stream's canonical encoding.
	CanonicalBytes int64
	// Version is the container version scanned.
	Version uint32

	sum  [32]byte
	dict []trace.Loc
}

// scanFreqCap bounds the location-frequency table a Scan accumulates: a
// hostile stream naming millions of distinct memory locations must not
// turn the O(batch) pass into an O(distinct-locations) allocation.
// Locations beyond the cap are simply not dictionary candidates (the
// encoding escapes them; correctness is unaffected).
const scanFreqCap = 1 << 20

// Scan reads a complete container from r in one pass, computing the
// content digest, record count and canonical size in O(batch) memory.
// Every record is validated, and a version 2-4 header whose declared
// digest, record count or canonical size disagrees with the stream is
// rejected — the same guarantees Load gives, without materialising the
// trace.  For versions 1-3, the containers SpoolToDir must transcode,
// it also builds the operand-location dictionary the version-4 form
// will carry; a version-4 container keeps the dictionary it has.
func Scan(r io.Reader) (ScanInfo, error) {
	info, _, err := scanKeep(r, 0)
	return info, err
}

// scanKeep is Scan that also keeps a version-4 container whose header
// declares a payload of at most keepMax bytes: the pass is Load's
// (loadV4 decodes, checks and hashes every block exactly as Scan's
// read does, but appends each block to the Trace's encoding instead of
// a reusable buffer), so the one verifying pass yields the in-memory
// Trace as well, and the kept encoding never exceeds keepMax.  Other
// containers (older versions, longer payloads, keepMax <= 0) are
// scanned in O(batch) memory and return a nil Trace.
func scanKeep(r io.Reader, keepMax int64) (ScanInfo, *Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return ScanInfo{}, nil, err
	}
	if rd.version == Version4 && keepMax > 0 && rd.rawLen <= uint64(keepMax) {
		t, err := loadV4(rd)
		if err != nil {
			return ScanInfo{}, nil, err
		}
		if err := rd.checkDeclared(t.n, t.sum, int64(t.canonical)); err != nil {
			return ScanInfo{}, nil, err
		}
		return ScanInfo{
			Digest:         t.digest,
			Records:        t.n,
			CanonicalBytes: int64(t.canonical),
			Version:        Version4,
			sum:            t.sum,
		}, t, nil
	}
	h := newCanonicalHasher()
	var freq *trace.LocMap[uint64]
	if rd.version != Version4 {
		freq = new(trace.LocMap[uint64])
	}
	count := func(refs []trace.Ref) {
		for _, ref := range refs {
			if freq.Len() < scanFreqCap {
				*freq.At(ref.Loc)++
			} else if n := freq.Get(ref.Loc); n != 0 {
				freq.Set(ref.Loc, n+1)
			}
		}
	}
	arena := arenaPool.Get().(*blockArena)
	defer arenaPool.Put(arena)
	for {
		n, err := rd.readBatch(arena.recs[:])
		if err == io.EOF {
			break
		} else if err != nil {
			return ScanInfo{}, nil, err
		}
		for i := range arena.recs[:n] {
			e := &arena.recs[i]
			h.write(e)
			if freq != nil {
				count(e.Inputs())
				count(e.Outputs())
			}
		}
	}
	info := ScanInfo{
		Records:        rd.Records(),
		CanonicalBytes: h.n,
		Version:        rd.Version(),
		sum:            h.sum(),
	}
	if freq != nil {
		info.dict = buildDict(freq)
	}
	info.Digest = fmt.Sprintf("%s%x", DigestPrefix, info.sum)
	if err := rd.checkDeclared(info.Records, info.sum, info.CanonicalBytes); err != nil {
		return ScanInfo{}, nil, err
	}
	return info, nil, nil
}

// SpoolInfo describes a container installed into a directory store.
type SpoolInfo struct {
	Digest         string
	Records        uint64
	CanonicalBytes int64
	// Path is the digest-named version-4 file holding the stream.
	Path string
	// FileBytes is the installed file's size on disk.
	FileBytes int64
}

// Open opens the installed file as a FileStream (see OpenFileStream),
// failing when the file's header no longer declares the digest, record
// count and canonical size the entry records: a file replaced
// out-of-band since it was installed is refused before it replays a
// record.  This is one header read per open; the payload is not
// re-hashed, so a file whose payload alone was altered still replays
// what it decodes to.
func (e SpoolInfo) Open() (*FileStream, error) {
	s, err := OpenFileStream(e.Path)
	if err != nil {
		return nil, err
	}
	h, err := s.r.header()
	if err == nil {
		err = e.declaredBy(h)
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("%s: %w", e.Path, err)
	}
	return s, nil
}

// declaredBy reports an error unless the header h declares the entry's
// digest, record count and canonical size.
func (e SpoolInfo) declaredBy(h SpoolInfo) error {
	if h.Digest == e.Digest && h.Records == e.Records && h.CanonicalBytes == e.CanonicalBytes {
		return nil
	}
	return fmt.Errorf("header declares %s, %d records, %d canonical bytes; the store holds %s, %d records, %d canonical bytes",
		h.Digest, h.Records, h.CanonicalBytes, e.Digest, e.Records, e.CanonicalBytes)
}

// installed returns the file already at want.Path when its header
// declares want's trace, which an install keeps rather than writing the
// same trace again.  Anything else there — junk, a truncated write,
// another trace's container — is not the trace, and the install
// replaces it through a temp file renamed into place, so re-storing a
// trace repairs a damaged file.  Where no file exists this is one
// failed open, no read.
func installed(want SpoolInfo) (SpoolInfo, bool) {
	got, err := ProbeFile(want.Path)
	return got, err == nil && want.declaredBy(got) == nil
}

// SaveToDir installs t into dir as its digest-named file, as SpoolToDir
// installs an upload, and reports whether it wrote the file: a file
// already there that declares t is kept (see installed).
func (t *Trace) SaveToDir(dir string) (SpoolInfo, bool, error) {
	info := SpoolInfo{
		Digest:         t.digest,
		Records:        t.n,
		CanonicalBytes: int64(t.canonical),
		Path:           filepath.Join(dir, DigestFileName(t.digest)),
	}
	if got, ok := installed(info); ok {
		return got, false, nil
	}
	err := writeFileRenamed(info.Path, func(w io.Writer) (err error) {
		info.FileBytes, err = t.WriteTo(w)
		return err
	})
	if err != nil {
		return SpoolInfo{}, false, err
	}
	return info, true, nil
}

// DigestFileName maps a content digest to the file name a directory
// store keeps it under (the ':' is not portable in file names).
func DigestFileName(digest string) string {
	return strings.ReplaceAll(digest, ":", "-") + ".trc"
}

// ErrStoreWrite tags a spool failure on the store's side — temp-file
// creation, disk-full writes, the final rename — as opposed to invalid
// upload bytes.  A server maps errors carrying it to a 5xx and
// everything else SpoolToDir returns to a 4xx.
var ErrStoreWrite = errors.New("tracefile: trace store write failed")

func storeWriteErr(err error) error {
	return fmt.Errorf("%w: %w", ErrStoreWrite, err)
}

// teeCapture is io.TeeReader with the write-side error remembered, so
// a disk failure during the spool is distinguishable from a decode
// failure of the bytes being scanned.
type teeCapture struct {
	r    io.Reader
	w    io.Writer
	werr error
}

func (t *teeCapture) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		if _, werr := t.w.Write(p[:n]); werr != nil {
			t.werr = werr
			return n, werr
		}
	}
	return n, err
}

// SpoolToDir streams a complete trace container from r into dir as a
// digest-named version-4 file, validating and digesting it
// incrementally.  The incoming bytes are teed to a temporary file in
// dir while one pass validates them; a version-4 upload is then renamed
// into place, and a version-1/2/3 upload is transcoded to version 4 by
// a second O(batch) pass.  When the upload is a version-4 container
// whose header declares a payload of at most keepMax bytes, the
// validating pass also keeps that payload, as Load does, and SpoolToDir
// returns it as the decoded Trace; otherwise the Trace is nil and
// neither the trace nor the body carrying it is ever held in memory,
// so arbitrarily long uploads cost O(batch).  Re-uploading a digest the
// directory already holds is a no-op that returns the existing file's
// info, provided the file's header declares the uploaded trace (see
// installed); any other file under the digest's name is replaced.
// Store-side failures carry ErrStoreWrite; any other error means the
// uploaded bytes were invalid.
func SpoolToDir(r io.Reader, dir string, keepMax int64) (SpoolInfo, *Trace, error) {
	tmp, err := os.CreateTemp(dir, ".upload-*.tmp")
	if err != nil {
		return SpoolInfo{}, nil, storeWriteErr(err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	tee := &teeCapture{r: r, w: bw}
	scan, kept, err := scanKeep(tee, keepMax)
	if err != nil {
		if tee.werr != nil {
			return SpoolInfo{}, nil, storeWriteErr(tee.werr)
		}
		return SpoolInfo{}, nil, err
	}
	if err := bw.Flush(); err != nil {
		return SpoolInfo{}, nil, storeWriteErr(err)
	}
	info := SpoolInfo{
		Digest:         scan.Digest,
		Records:        scan.Records,
		CanonicalBytes: scan.CanonicalBytes,
		Path:           filepath.Join(dir, DigestFileName(scan.Digest)),
	}
	if got, ok := installed(info); ok {
		// Already installed: content addressing makes keeping the file
		// safe — equal digests mean equal streams.
		return got, kept, nil
	}
	if scan.Version == Version4 {
		// The upload is already a valid, fully-verified v4 container:
		// install the teed bytes as-is.
		if err := tmp.Close(); err != nil {
			return SpoolInfo{}, nil, storeWriteErr(err)
		}
		if err := os.Rename(tmp.Name(), info.Path); err != nil {
			return SpoolInfo{}, nil, storeWriteErr(err)
		}
	} else {
		if _, err := tmp.Seek(0, io.SeekStart); err != nil {
			return SpoolInfo{}, nil, storeWriteErr(err)
		}
		// The temp file's bytes were fully validated by the scan, so any
		// transcode failure is the store's fault, not the upload's.
		if err := transcodeV4File(info.Path, tmp, scan); err != nil {
			return SpoolInfo{}, nil, storeWriteErr(err)
		}
	}
	fi, err := os.Stat(info.Path)
	if err != nil {
		return SpoolInfo{}, nil, storeWriteErr(err)
	}
	info.FileBytes = fi.Size()
	return info, kept, nil
}

// transcodeV4File writes the records of the container in src as a
// version-4 file at dst, in O(batch) memory.  The v4 header declares
// the uncompressed payload length before the payload, so the compressed
// payload is spooled to a sibling temp file first and the header
// written once the length is known.  The v4 encoder frames its sealed
// plane-split blocks into its enc buffer; draining that buffer after
// every record keeps the transcode's memory at one open block plus the
// flate window, whatever the upload's length.
func transcodeV4File(dst string, src io.Reader, scan ScanInfo) error {
	rd, err := NewReader(src)
	if err != nil {
		return err
	}
	spool, err := os.CreateTemp(filepath.Dir(dst), ".payload-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()
	sw := bufio.NewWriterSize(spool, 1<<16)
	zw, err := flate.NewWriter(sw, flate.DefaultCompression)
	if err != nil {
		return err
	}
	enc := newV4Encoder(scan.dict, 1<<16)
	var rawLen uint64
	drain := func() error {
		rawLen += uint64(len(enc.enc))
		if _, err := zw.Write(enc.enc); err != nil {
			return err
		}
		// The encoder's block-offset bookkeeping is meaningless across
		// drains and unused here; reset both so the buffers stay small.
		enc.enc = enc.enc[:0]
		enc.blocks = enc.blocks[:0]
		return nil
	}
	var e trace.Exec
	for {
		if err := rd.Read(&e); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		enc.write(&e)
		if len(enc.enc) > 0 {
			// A block just sealed: stream it out before the next opens.
			if err := drain(); err != nil {
				return err
			}
		}
	}
	enc.finish()
	if err := drain(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return writeFileRenamed(dst, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if err := writeCompressedHeader(bw, scan.Records, scan.sum, uint64(scan.CanonicalBytes), rawLen, scan.dict); err != nil {
			return err
		}
		if _, err := io.Copy(bw, spool); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// writeCompressedHeader emits the magic, version 4 and the prelude
// versions 3 and 4 share, which the flate-compressed payload follows:
//
//	records:u64 digest:32B canonical:u64 rawLen:u64
//	dictLen:u32 {rotLoc:uvarint}*dictLen
//	flate(record payload) … EOF
//
// The digest covers the canonical encoding (container-independent
// identity); rawLen is the uncompressed payload length, bounding what a
// reader will inflate.  Blocks need no offset table on disk: they are
// back-to-back runs of exactly BlockLen records, so a streaming reader
// finds every boundary by counting, and Load rebuilds the in-memory
// offsets during validation.
func writeCompressedHeader(w io.Writer, records uint64, sum [32]byte, canonical, rawLen uint64, dict []trace.Loc) error {
	if _, err := w.Write(Magic[:]); err != nil {
		return err
	}
	var u4 [4]byte
	var u8 [8]byte
	binary.LittleEndian.PutUint32(u4[:], Version4)
	if _, err := w.Write(u4[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(u8[:], records)
	if _, err := w.Write(u8[:]); err != nil {
		return err
	}
	if _, err := w.Write(sum[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(u8[:], canonical)
	if _, err := w.Write(u8[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(u8[:], rawLen)
	if _, err := w.Write(u8[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u4[:], uint32(len(dict)))
	if _, err := w.Write(u4[:]); err != nil {
		return err
	}
	var vbuf [binary.MaxVarintLen64]byte
	for _, l := range dict {
		n := binary.PutUvarint(vbuf[:], rotLoc(l))
		if _, err := w.Write(vbuf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// writeFileRenamed writes a file through a temp-and-rename in the
// target's directory, so a failure mid-write never leaves a truncated
// file at the final path.
func writeFileRenamed(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
