package tlr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// First-class trace sources: the paper's toolflow was trace-driven —
// ATOM-instrumented binaries produced dynamic trace files that the
// reuse engines analysed offline — and this file makes that stream a
// public, pluggable Request input.  A TraceSource stands in for the
// program in the trace-driven request kinds (Study, RTM, VP): Record
// captures a program's dynamic stream once, and every analysis of it
// afterwards replays the recording instead of re-simulating.
//
// The contract is streaming-first: a source opens a stream of decoded
// record batches (the same up-to-256-record arena batches
// tracefile.Cursor produces), and the consuming engines pull batches —
// nothing requires the stream to be materialised.  An in-memory
// recording serves O(1)-seekable cursors; a trace file or a disk-tier
// store entry decodes incrementally, so replaying an N-record file
// costs O(batch) memory; and sources compose: Concat plays several
// streams back to back as one.
//
// Pipeline requests model fetch and execution itself and therefore
// cannot run from a recording; they reject trace sources with
// ErrTraceUnsupported.

// ErrTraceUnsupported reports a trace-backed Request of an
// execution-driven kind.  Use errors.Is to detect it.
var ErrTraceUnsupported = errors.New(
	"tlr: pipeline simulation is execution-driven and cannot run from a trace source")

// TraceSource is a recorded dynamic instruction stream, usable as a
// Request's program input for the trace-driven kinds (Study, RTM, VP).
// Implementations are *Trace, TraceFile, TraceRef and the composite
// Concat; the interface is sealed.
type TraceSource interface {
	// describe resolves the stream's identity — cache key material,
	// provenance, record count — without replaying it.  The Batcher is
	// needed only by digest references (TraceRef), which look the
	// stream up in its store; the other sources ignore it.
	describe(b *Batcher) (streamDesc, error)

	// openStream opens one replayable pass over the recorded stream,
	// positioned at its first record.  Each replay opens its own
	// stream; the caller must Close it.
	openStream(b *Batcher) (trace.Stream, error)
}

// streamDesc is a resolved source's identity.
type streamDesc struct {
	// digest is the content digest of the stream, when it is a single
	// recording ("" for composites, which are identified by key).
	digest string
	// key is the cache identity for digest-less sources.
	key string
	// provKey is the originating program's identity ("" = the stream is
	// its own workload, keyed by digest).
	provKey string
	// base is how many leading records of the provenance identity the
	// stream already skipped (recordings made past a warm-up).
	base uint64
	// records is the number of records the stream holds.
	records uint64
	// complete reports that the stream runs to the program's halt.
	complete bool
}

// identity returns the cache key of a provenance-free stream.
func (d streamDesc) identity() string {
	if d.digest != "" {
		return "trace:" + d.digest
	}
	return d.key
}

// childIdentity names one composite child inside its parent's key: a
// single recording is its digest, a composite its composite key.
func (d streamDesc) childIdentity() string {
	if d.digest != "" {
		return d.digest
	}
	return d.key
}

// Trace is an in-memory recorded instruction stream: the result of
// Record, ReadTrace, OpenTrace or Materialize.  It is immutable and
// safe to share across goroutines and requests.
//
// A Trace produced by Record remembers which program (and skip) it was
// recorded from, so requests backed by it share result-cache entries
// with requests naming the originating program.  Traces loaded from
// files or readers have no provenance and are cached under their
// content digest instead.
type Trace struct {
	t        *tracefile.Trace
	provKey  string // originating stream identity ("" = unknown)
	provSkip uint64 // instructions skipped before recording began
	complete bool   // recording ran to program halt
}

// Digest returns the content digest of the recorded stream, like
// "sha256:9f86d0…".  Equal streams have equal digests regardless of
// how they were recorded, stored or transported.
func (t *Trace) Digest() string { return t.t.Digest() }

// Records returns the number of recorded instructions.
func (t *Trace) Records() uint64 { return t.t.Records() }

// Size returns the in-memory encoded size of the stream in bytes (the
// plane-split v4 form a trace store holding this Trace spends).
func (t *Trace) Size() int { return t.t.Bytes() }

// CanonicalSize returns the size of the stream's canonical record
// encoding — the form the content digest covers, and what the
// uncompressed version-1/2 containers spend on the same stream.  The
// ratio Size/CanonicalSize is the in-memory win of the plane-split
// encoding.
func (t *Trace) CanonicalSize() int { return t.t.CanonicalBytes() }

// Complete reports whether the recording ran to the program's halt, in
// which case the trace covers every instruction the program can ever
// produce.
func (t *Trace) Complete() bool { return t.complete }

// WriteTo serialises the trace in the current container format
// (version 4: record count, content digest, canonical size and
// location dictionary, then the plane-split record blocks framed with
// flate — several times smaller than the canonical containers and
// several times faster to decode on reload; see docs/FORMAT.md).
func (t *Trace) WriteTo(w io.Writer) (int64, error) { return t.t.WriteTo(w) }

// Save writes the trace to a file (see WriteTo).  The bytes go to a
// temporary file in the target's directory that is renamed into place,
// so a failure mid-write never leaves a truncated trace at the final
// path.
func (t *Trace) Save(path string) error { return t.t.Save(path) }

func (t *Trace) describe(*Batcher) (streamDesc, error) {
	return streamDesc{
		digest:   t.t.Digest(),
		provKey:  t.provKey,
		base:     t.provSkip,
		records:  t.t.Records(),
		complete: t.complete,
	}, nil
}

func (t *Trace) openStream(*Batcher) (trace.Stream, error) { return t.t.Cursor(), nil }

// RecordSpec names the program to record and the stream bounds.
// Exactly one of Workload, Source or Prog must be set.
type RecordSpec struct {
	// Workload names a built-in benchmark (see Workloads).
	Workload string
	// Source is assembly text.
	Source string
	// Prog is an already-assembled program.
	Prog *Program

	// Skip is executed before recording starts; Budget is the maximum
	// number of instructions to record (required).  Recording stops
	// early at program halt, which marks the trace complete.
	Skip, Budget uint64
}

// Record executes a program on the functional simulator and captures
// its dynamic instruction stream as an in-memory Trace — the
// record/replay workflow's recording half.  A Study, RTM or VP request
// backed by the returned Trace yields results identical to the same
// request backed by the program itself (and shares its result-cache
// entries), while replaying the recording instead of re-simulating:
// record once, analyse across a whole configuration grid.
func Record(ctx context.Context, spec RecordSpec) (*Trace, error) {
	if spec.Budget == 0 {
		return nil, fmt.Errorf("tlr: Record needs a positive Budget")
	}
	progs := 0
	for _, on := range []bool{spec.Workload != "", spec.Source != "", spec.Prog != nil} {
		if on {
			progs++
		}
	}
	if progs != 1 {
		return nil, fmt.Errorf("tlr: exactly one of Workload, Source, Prog must be set (got %d)", progs)
	}

	var (
		prog    *Program
		progKey string
		err     error
	)
	switch {
	case spec.Workload != "":
		w, ok := workload.ByName(spec.Workload)
		if !ok {
			return nil, fmt.Errorf("tlr: unknown workload %q", spec.Workload)
		}
		if prog, err = w.Program(); err != nil {
			return nil, err
		}
		progKey = "workload:" + spec.Workload
	case spec.Source != "":
		if prog, err = asm.Assemble(spec.Source); err != nil {
			return nil, err
		}
		progKey = service.Fingerprint(prog)
	default:
		prog = spec.Prog
		progKey = service.Fingerprint(prog)
	}

	c := cpu.New(prog)
	if spec.Skip > 0 {
		if _, err := c.RunContext(ctx, spec.Skip, nil); err != nil {
			return nil, err
		}
	}
	rec := tracefile.NewRecorder()
	if _, err := c.RunContext(ctx, spec.Budget, rec.Write); err != nil {
		return nil, err
	}
	return &Trace{
		t:        rec.Trace(),
		provKey:  progKey,
		provSkip: spec.Skip,
		complete: c.Halted(),
	}, nil
}

// ReadTrace reads and validates a complete trace from r (any container
// version).  The result carries no provenance: it is cached under its
// content digest.
func ReadTrace(r io.Reader) (*Trace, error) {
	t, err := tracefile.Load(r)
	if err != nil {
		return nil, err
	}
	return &Trace{t: t}, nil
}

// OpenTrace reads a trace file from disk into memory (see ReadTrace).
// Use TraceFile instead to replay the file without materialising it.
func OpenTrace(path string) (*Trace, error) {
	t, err := tracefile.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &Trace{t: t}, nil
}

// TraceFile returns a TraceSource backed by a trace file on disk,
// replayed by streaming: every replay decodes the container
// incrementally in O(batch) memory, however long the recording is.  On
// first use the file is scanned once to compute (and, for indexed
// containers, verify) its content digest — the source's cache identity
// — so a batch of requests sharing the source validates it once.  Use
// OpenTrace to load the file into memory instead, which buys O(1)
// seeks at O(records) memory.
func TraceFile(path string) TraceSource {
	return &fileSource{path: path}
}

type fileSource struct {
	path string
	once sync.Once
	desc streamDesc
	err  error
}

func (s *fileSource) describe(*Batcher) (streamDesc, error) {
	s.once.Do(func() {
		info, err := tracefile.ScanFile(s.path)
		if err != nil {
			s.err = err
			return
		}
		s.desc = streamDesc{digest: info.Digest, records: info.Records}
	})
	return s.desc, s.err
}

func (s *fileSource) openStream(b *Batcher) (trace.Stream, error) {
	// Describing first pins the digest the file had when it entered the
	// batch; a file swapped underneath mid-batch yields decode errors or
	// divergent records, never a silently mis-keyed cache entry for the
	// original digest... the scan validates the container in full, so
	// the common corruption cases fail at describe time.
	if _, err := s.describe(b); err != nil {
		return nil, err
	}
	return tracefile.OpenFileStream(s.path)
}

// TraceRef returns a TraceSource addressing a trace already stored in
// the executing Batcher's trace store by content digest (see
// Batcher.StoreTrace) — upload a trace once, sweep it many times.
// Building a request's job and cache key reads the digest's record
// count from the store's indexes and loads nothing, so a request
// answered from the result cache never touches the trace.  A replay
// resolves through the store's tiers: a memory-tier hit (or a small
// disk-tier file, promoted back into memory) replays in-memory
// cursors, a large disk-tier file replays as an incrementally decoded
// stream in O(batch) memory.  cmd/tlrserve resolves these references
// against its own store, so a digest-referenced request crosses the
// wire without the trace bytes.
func TraceRef(digest string) TraceSource { return refSource(digest) }

// TraceRefDigest returns the digest a TraceRef source addresses, or ""
// for any other TraceSource.  Routing layers (cmd/tlrserve's cluster
// forwarding) use it to decide where a digest-referenced request
// should execute without resolving the reference.
func TraceRefDigest(src TraceSource) string {
	if ref, ok := src.(refSource); ok {
		return string(ref)
	}
	return ""
}

type refSource string

func (r refSource) errStore() error {
	return fmt.Errorf("tlr: trace reference %q can only be resolved by a Batcher with a trace store", string(r))
}

func (r refSource) errMissing() error {
	return fmt.Errorf("tlr: no stored trace with digest %q (store it first with StoreTrace or POST /v1/traces)", string(r))
}

// describe reads the record count from the store's indexes (see
// service.TraceRecords): only openStream, when a job actually runs,
// resolves the digest and may promote it.
func (r refSource) describe(b *Batcher) (streamDesc, error) {
	if b == nil {
		return streamDesc{}, r.errStore()
	}
	n, ok := b.svc.TraceRecords(string(r))
	if !ok {
		return streamDesc{}, r.errMissing()
	}
	return streamDesc{digest: string(r), records: n}, nil
}

func (r refSource) openStream(b *Batcher) (trace.Stream, error) {
	if b == nil {
		return nil, r.errStore()
	}
	h, ok := b.svc.ResolveTrace(string(r))
	if !ok {
		return nil, r.errMissing()
	}
	return h.Open()
}

// Concat returns a TraceSource that plays the given sources back to
// back as one stream, in order.  The composite carries no provenance
// (it is its own workload, keyed by its children's identities), and
// nothing is materialised: each child streams in turn.  Concatenating
// adjacent windows of one program reproduces the long recording
// record for record — Materialize of the composite has the same
// content digest — but the composite does not share cache entries
// with the originating program.
func Concat(sources ...TraceSource) TraceSource {
	return &concatSource{srcs: sources}
}

type concatSource struct {
	srcs []TraceSource
}

func (c *concatSource) describe(b *Batcher) (streamDesc, error) {
	if len(c.srcs) == 0 {
		return streamDesc{}, fmt.Errorf("tlr: Concat needs at least one source")
	}
	ids := make([]string, len(c.srcs))
	var records uint64
	complete := false
	for i, src := range c.srcs {
		d, err := src.describe(b)
		if err != nil {
			return streamDesc{}, fmt.Errorf("tlr: concat source %d: %w", i, err)
		}
		ids[i] = d.childIdentity()
		records += d.records
		complete = d.complete // the stream ends where the last child ends
	}
	return streamDesc{
		key:      "concat(" + strings.Join(ids, ",") + ")",
		records:  records,
		complete: complete,
	}, nil
}

func (c *concatSource) openStream(b *Batcher) (trace.Stream, error) {
	return &compositeStream{b: b, parts: c.srcs}, nil
}

// compositeStream plays a sequence of parts as one trace.Stream,
// opening each child lazily and closing it when drained, so at most
// one child stream is resident at a time.
type compositeStream struct {
	b     *Batcher
	parts []TraceSource
	idx   int
	cur   trace.Stream
}

// next ensures a current child stream, opening the next part; it
// returns io.EOF once every part is drained.
func (s *compositeStream) next() error {
	for s.cur == nil {
		if s.idx >= len(s.parts) {
			return io.EOF
		}
		st, err := s.parts[s.idx].openStream(s.b)
		if err != nil {
			return err
		}
		s.cur = st
	}
	return nil
}

func (s *compositeStream) NextBatch() ([]trace.Exec, error) {
	for {
		if err := s.next(); err != nil {
			return nil, err
		}
		batch, err := s.cur.NextBatch()
		if err == io.EOF {
			s.cur.Close()
			s.cur = nil
			s.idx++
			continue
		}
		return batch, err
	}
}

func (s *compositeStream) Skip(n uint64) (uint64, error) {
	var done uint64
	for done < n {
		if err := s.next(); err == io.EOF {
			return done, nil
		} else if err != nil {
			return done, err
		}
		want := n - done
		k, err := s.cur.Skip(want)
		done += k
		if err != nil {
			return done, err
		}
		if k < want {
			// The child ended inside the skip: move on to the next part.
			s.cur.Close()
			s.cur = nil
			s.idx++
		}
	}
	return done, nil
}

func (s *compositeStream) Close() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	s.idx = len(s.parts)
}

// traceSource maps a TraceSource onto the factory serviceJob uses to
// build the job's service input and its effective skip.
//
// A provenance-carrying stream is keyed as the originating program,
// with the recording's own skip folded in — so a request backed by the
// recording and the same request backed by the program hit the same
// result-cache entry.  That keying is only sound when the replay is
// guaranteed to retire exactly what live execution would: the stream
// must cover skip+budget records or have run to halt.  (Reuse overshoot
// past the budget never reads the stream, so no extra margin is needed;
// see rtm.Replay.)  An undercovering recording is an error rather than
// a silently shorter answer.
//
// A stream without provenance is its own workload, keyed by digest (or
// by composite identity); the stream simply ends where the recording
// ends.
func (b *Batcher) traceSource(src TraceSource) (func(skip, budget uint64) (service.Source, uint64, error), error) {
	d, err := src.describe(b)
	if err != nil {
		return nil, err
	}
	open := func() (trace.Stream, error) { return src.openStream(b) }
	return func(skip, budget uint64) (service.Source, uint64, error) {
		if d.provKey != "" {
			if !d.complete && (skip > d.records || budget > d.records-skip) {
				return service.Source{}, 0, fmt.Errorf(
					"tlr: recorded stream holds %d records but the request needs skip+budget = %d and the recording did not run to halt; record a longer trace, or save and reload it to analyse the stream as-is",
					d.records, skip+budget)
			}
			// The job's Skip is identity-relative (base folded in) so the
			// cache key matches the program-backed request exactly; replay
			// subtracts the recording's own skip again when positioning
			// the stream (service.Source.base).
			return service.StreamSource(d.provKey, d.base, open), d.base + skip, nil
		}
		return service.StreamSource(d.identity(), 0, open), skip, nil
	}, nil
}

// Materialize resolves any TraceSource into an in-memory Trace,
// replaying (and re-encoding) the stream when the source is not
// already memory-backed; only an in-memory recording keeps its
// provenance.  Sources that need a store (TraceRef) must be
// materialised through their Batcher's Materialize method.
func Materialize(src TraceSource) (*Trace, error) { return materialize(nil, src) }

// Materialize resolves any TraceSource into an in-memory Trace against
// this Batcher (so TraceRef digests resolve in its store); see the
// package-level Materialize.
func (b *Batcher) Materialize(src TraceSource) (*Trace, error) { return materialize(b, src) }

func materialize(b *Batcher, src TraceSource) (*Trace, error) {
	if t, ok := src.(*Trace); ok {
		return t, nil
	}
	d, err := src.describe(b)
	if err != nil {
		return nil, err
	}
	st, err := src.openStream(b)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rec := tracefile.NewRecorder()
	for {
		batch, err := st.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := range batch {
			rec.Write(&batch[i])
		}
	}
	return &Trace{
		t:        rec.Trace(),
		complete: d.complete,
	}, nil
}

// StoreTrace materialises src and registers it in the Batcher's
// digest-addressed trace store, returning the digest.  Requests
// carrying TraceRef(digest) then replay it without re-supplying the
// bytes.  The store's memory tier is LRU-bounded by total bytes, and
// with a disk tier configured (BatchOptions.TraceDir) the trace is
// also written through to its digest-named file.  To store a trace
// container without materialising it, use StoreTraceFrom.
func (b *Batcher) StoreTrace(src TraceSource) (string, error) {
	if ref, ok := src.(refSource); ok {
		// Storing a reference to an already-stored trace is idempotent:
		// answer from the store instead of replaying and re-hashing the
		// whole stream to recompute a digest the store already knows.
		d, err := ref.describe(b)
		if err != nil {
			return "", err
		}
		return d.digest, nil
	}
	t, err := b.Materialize(src)
	if err != nil {
		return "", err
	}
	return b.svc.AddTrace(t.t), nil
}

// StoreTraceFrom stores a trace read from a container stream (any
// version), validating and digesting it incrementally.  With a disk
// tier (BatchOptions.TraceDir) the bytes spool straight to the
// digest-named file; a version-4 stream small enough to promote also
// enters the memory tier from the same pass, and any other is never
// materialised, so arbitrarily long streams cost O(batch) memory —
// this is the library face of cmd/tlrserve's chunked POST /v1/traces
// upload.  Without a disk tier the trace is decoded into the memory
// tier, as StoreTrace would.
func (b *Batcher) StoreTraceFrom(r io.Reader) (TraceInfo, error) {
	return b.svc.AddTraceStream(r)
}

// TraceInfo describes one trace in a Batcher's store.
type TraceInfo = service.TraceInfo

// Traces lists the Batcher's stored traces: the memory tier most
// recently used first, then disk-only traces.
func (b *Batcher) Traces() []TraceInfo { return b.svc.Traces() }

// HasTrace reports whether the digest resolves from the Batcher's
// local store tiers alone — it never triggers a peer fetch and counts
// no hit/miss statistics, so routing layers can probe placement
// cheaply before deciding to forward or pull.
func (b *Batcher) HasTrace(digest string) bool { return b.svc.HasTrace(digest) }

// WriteTraceTo streams the stored trace for a digest to w as a
// version-4 trace file, serving the memory tier's encoding or copying
// the disk tier's file without decoding it (cmd/tlrserve's
// GET /v1/traces/{digest} download is this call).  It reports the
// bytes written and whether the digest was found; an error with zero
// bytes written means nothing reached w.
func (b *Batcher) WriteTraceTo(digest string, w io.Writer) (int64, bool, error) {
	return b.svc.WriteTraceTo(digest, w)
}
