package service

import (
	"container/list"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
)

// traceStore is the service's digest-addressed store of recorded
// traces: upload once, replay many times.  It has two tiers.  The
// memory tier holds decoded *tracefile.Trace values, LRU-bounded by
// total encoded bytes (traces vary from kilobytes to gigabytes, so
// counting entries would bound nothing).  The optional disk tier (a
// directory of digest-named version-4 files) sits behind it: traces are
// written through to disk when they enter the store (a small version-4
// upload enters memory as well, from the one pass that spools it),
// memory evictions become free drops instead of data loss, and lookups
// fall through memory → disk → peers — serving small disk hits by
// promoting them back into memory and large ones as incrementally-
// decoded file streams, so replaying an N-record stored trace needs
// O(batch) memory, not O(N).
//
// Every path a trace takes into or out of the store is a method here:
// AddTrace, AddTraceStream and the peer fetch install; ResolveTrace,
// TraceRecords, HasTrace, WriteTraceTo, TraceDigests and Traces look
// up; rehydrate indexes a restarted store's files.  Service embeds the
// store, so they are Service methods.  The store is safe for concurrent
// use: mu guards the two tiers' index, and file I/O — spools, saves,
// promotes, streams — runs outside it, so the index only ever records
// the outcome of disk work.
type traceStore struct {
	peerFetch func(digest string, exclude []string) (io.ReadCloser, string, error)

	traceHits   *metrics.Counter
	traceMisses *metrics.Counter
	peerFetches *metrics.Counter
	peerRejects *metrics.Counter
	spills      *metrics.Counter
	promotes    *metrics.Counter

	capBytes int64  // fixed at construction, read without mu
	dir      string // "" = no disk tier; fixed at construction

	mu        sync.Mutex
	bytes     int64
	items     map[string]*list.Element
	order     *list.List // front = most recently used
	disk      map[string]tracefile.SpoolInfo
	diskBytes int64
}

type traceEntry struct {
	digest string
	t      *tracefile.Trace
}

// newTraceStore builds the store Options describe, registers its
// instruments on reg and, with a disk tier, indexes the files already
// in its directory.
func newTraceStore(opt Options, reg *metrics.Registry) *traceStore {
	c := &traceStore{
		peerFetch: opt.PeerFetch,
		capBytes:  opt.TraceCacheBytes,
		dir:       opt.TraceDir,
		items:     make(map[string]*list.Element),
		order:     list.New(),
		disk:      make(map[string]tracefile.SpoolInfo),
	}
	c.traceHits = reg.Counter("tlr_trace_hits_total",
		"Trace-store lookups that resolved a digest: one per replay a job (or a stream pass of jobs) opens, none for a job answered from cache.")
	c.traceMisses = reg.Counter("tlr_trace_misses_total",
		"Trace-store lookups for unknown digests.")
	c.peerFetches = reg.Counter("tlr_trace_peer_fetches_total",
		"Traces pulled from cluster peers into the local store.")
	c.peerRejects = reg.Counter("tlr_trace_peer_rejects_total",
		"Peer trace bodies rejected as invalid or digest-mismatched.")
	c.spills = reg.Counter("tlr_trace_spills_total",
		"Traces written through to the disk tier.")
	c.promotes = reg.Counter("tlr_trace_promotes_total",
		"Disk-tier hits decoded back into the memory tier.")

	// Occupancy gauges, evaluated at scrape time from the snapshot Stats
	// reads.
	traces := reg.GaugeVec("tlr_trace_store_traces",
		"Recorded traces held, by store tier.", "tier")
	traces.WithFunc(func() float64 { return float64(c.occupancy().Traces) }, "memory")
	traces.WithFunc(func() float64 { return float64(c.occupancy().TraceDisk) }, "disk")
	bytes := reg.GaugeVec("tlr_trace_store_bytes",
		"Bytes held by the trace store, by tier (encoded in memory, file bytes on disk).", "tier")
	bytes.WithFunc(func() float64 { return float64(c.occupancy().TraceBytes) }, "memory")
	bytes.WithFunc(func() float64 { return float64(c.occupancy().TraceDiskBytes) }, "disk")

	if c.dir != "" {
		c.rehydrate()
	}
	return c
}

// occupancy returns what the two tiers hold, read under one lock, as
// the Stats fields that report it.
func (c *traceStore) occupancy() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Traces: c.order.Len(), TraceBytes: c.bytes, TraceDisk: len(c.disk), TraceDiskBytes: c.diskBytes}
}

// promoteMaxFileBytes is the largest disk-tier file a lookup will
// decode back into the memory tier, and the largest declared version-4
// payload (the in-memory form) an upload keeps in memory as it spools;
// larger traces are served as streams until a lookup promotes them.
// The threshold is a fraction of the memory capacity so one promotion
// or upload cannot wipe most of the cache (the decoded in-memory form
// is a few times the compressed file).
func (c *traceStore) promoteMaxFileBytes() int64 { return c.capBytes / 8 }

// AddTrace stores a recorded trace and returns its digest.  Storing an
// already-present digest refreshes its LRU position.  With a disk tier
// the trace is also written through to its digest-named file (so a
// later memory eviction loses nothing; a file already there is kept
// only when its header declares this trace, see
// tracefile.Trace.SaveToDir); a write-through failure leaves the trace
// memory-only rather than failing the store.
func (c *traceStore) AddTrace(t *tracefile.Trace) string {
	var sp tracefile.SpoolInfo
	wrote := false
	if c.dir != "" {
		// On a failed write sp stays empty: the trace is memory-only.
		sp, wrote, _ = t.SaveToDir(c.dir)
	}
	return c.admit(t.Digest(), t, sp, wrote).Digest
}

// AddTraceStream stores a trace read from a container stream (any
// version), validating and digesting it incrementally.  With a disk
// tier the stream spools straight to its digest-named file.  A
// version-4 upload whose declared payload fits the promote bound (one
// eighth of the memory tier) keeps the payload the spool validates and
// enters the memory tier too, as AddTrace would, so its first replay
// decodes nothing again; any other upload (versions 1-3, longer
// payloads) is never materialised, so arbitrarily long uploads cost
// O(batch) memory, and the memory tier fills in when the digest is
// first replayed (see ResolveTrace).  Without a disk tier the trace is
// decoded into the memory tier, as AddTrace would.  The returned
// TraceInfo is the entry GET /v1/traces would list.
func (c *traceStore) AddTraceStream(r io.Reader) (TraceInfo, error) {
	return c.installStream(r, "")
}

// installStream is the one way a container stream enters the store:
// AddTraceStream's uploads (want == "") and peer fetches, which want
// one digest.  It makes one verifying pass over the body: with a disk
// tier, SpoolToDir tees it into the digest-named file and keeps a
// version-4 payload within the promote bound; without one, Load decodes
// it.  A body whose content digests to anything else than want is
// rejected before it is stored, so it can neither resolve the digest
// asked for nor take either tier's room.  (A spool has already
// installed such a body's file under its true name, possibly a trace
// the store holds; the disk index does not learn of it.)
func (c *traceStore) installStream(r io.Reader, want string) (TraceInfo, error) {
	var (
		t   *tracefile.Trace // memory tier: the decoded or kept trace
		sp  tracefile.SpoolInfo
		err error
	)
	if c.dir == "" {
		t, err = tracefile.Load(r)
	} else {
		sp, t, err = tracefile.SpoolToDir(r, c.dir, c.promoteMaxFileBytes())
	}
	if err != nil {
		return TraceInfo{}, err
	}
	digest := sp.Digest
	if t != nil {
		digest = t.Digest()
	}
	if want != "" && digest != want {
		return TraceInfo{}, fmt.Errorf("content digest is %s", digest)
	}
	return c.admit(digest, t, sp, true), nil
}

// admit records an install's or a promote's outcome under one lock:
// the disk tier's file sp (none when sp.Path is ""), counted as a spill
// when it is new to the index and the install wrote it, then the memory
// tier's trace t — or, when the install kept none, a refresh of the
// digest's LRU position.  It returns the digest's entry as GET
// /v1/traces lists it.
func (c *traceStore) admit(digest string, t *tracefile.Trace, sp tracefile.SpoolInfo, wrote bool) TraceInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp.Path != "" && c.addDisk(sp) && wrote {
		c.spills.Inc()
	}
	if t != nil {
		c.add(t)
	} else if el, ok := c.items[digest]; ok {
		c.order.MoveToFront(el)
	}
	return c.info(digest)
}

// add admits t to the memory tier under its digest; c.mu must be held.
// Without a disk tier the newest trace is always admitted — even one
// larger than the capacity, which otherwise could be stored and then
// never found — and older traces are evicted until the store fits.
// With a disk tier (where every stored trace also has a file, see
// addDisk), a trace larger than the whole memory budget stays
// disk-only, and evicted traces simply drop from memory.
func (c *traceStore) add(t *tracefile.Trace) {
	d := t.Digest()
	if el, ok := c.items[d]; ok {
		c.order.MoveToFront(el)
		return
	}
	if int64(t.Bytes()) > c.capBytes {
		// Keep an over-budget trace disk-only — but only when its disk
		// copy actually exists (a failed write-through must not lose the
		// trace from every tier).
		if _, onDisk := c.disk[d]; onDisk {
			return
		}
	}
	c.items[d] = c.order.PushFront(&traceEntry{digest: d, t: t})
	c.bytes += int64(t.Bytes())
	for c.bytes > c.capBytes && c.order.Len() > 1 {
		back := c.order.Back()
		ent := back.Value.(*traceEntry)
		c.bytes -= int64(ent.t.Bytes())
		delete(c.items, ent.digest)
		c.order.Remove(back)
	}
}

// addDisk records a digest-named file as the disk tier's copy of a
// trace (the records themselves stay on disk) and reports whether the
// digest is new to the disk tier; c.mu must be held.
func (c *traceStore) addDisk(e tracefile.SpoolInfo) bool {
	old, ok := c.disk[e.Digest]
	if ok {
		c.diskBytes -= old.FileBytes
	}
	c.disk[e.Digest] = e
	c.diskBytes += e.FileBytes
	return !ok
}

// rehydrate registers the digest-named trace files already in the disk
// tier's directory, so a store pointed at an existing directory (a
// restarted server) serves its traces without re-upload.  Runs before
// the store is shared, so no locking; files that fail to probe, or
// whose name does not match their declared digest, are logged and
// skipped (they 404, exactly as they would have before rehydration
// existed) — junk in the data dir must never prevent startup.
func (c *traceStore) rehydrate() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".trc") {
			continue
		}
		path := filepath.Join(c.dir, ent.Name())
		info, err := tracefile.ProbeFile(path)
		if err == nil && tracefile.DigestFileName(info.Digest) != ent.Name() {
			err = fmt.Errorf("file name does not match its digest %s", info.Digest)
		}
		if err != nil {
			log.Printf("service: trace store: skipping %s: %v", path, err)
			continue
		}
		c.addDisk(info)
	}
}

// TraceHandle is a resolved stored trace: its identity plus what Open
// replays — the memory tier's trace, or else the disk tier's file.
type TraceHandle struct {
	Digest  string
	Records uint64
	mem     *tracefile.Trace
	file    tracefile.SpoolInfo
}

// Open opens one pass over the stored stream: an O(1)-seekable cursor
// over the in-memory trace, or an incrementally decoded stream over the
// file, refused when the file's header no longer matches the store's
// entry.  The caller must Close it.
func (h TraceHandle) Open() (trace.Stream, error) {
	if h.mem != nil {
		return h.mem.Cursor(), nil
	}
	st, err := h.file.Open()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// lookup reads both tiers' index for a digest under one lock, reading
// no file, and reports whether either tier holds it.  The handle
// carries the memory tier's trace when it is resident — a hit
// refreshes its LRU position: a trace whose requests are all answered
// from the result cache is still in use, and without a disk tier its
// eviction would lose it — and the disk tier's entry.
func (c *traceStore) lookup(digest string) (TraceHandle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, onDisk := c.disk[digest]
	h := TraceHandle{Digest: digest, Records: ent.Records, file: ent}
	if el, ok := c.items[digest]; ok {
		c.order.MoveToFront(el)
		h.mem = el.Value.(*traceEntry).t
		h.Records = h.mem.Records()
	}
	return h, h.mem != nil || onDisk
}

// locate is the lookup order ResolveTrace and TraceRecords share: the
// local tiers' index, then — when neither tier holds the digest and
// Options.PeerFetch is wired — a peer fetch that installs it locally,
// and the index again.  A digest no tier or peer holds counts a miss.
func (c *traceStore) locate(digest string) (TraceHandle, bool) {
	h, ok := c.lookup(digest)
	if !ok && c.fetchFromPeer(digest) {
		h, ok = c.lookup(digest)
	}
	if !ok {
		c.traceMisses.Inc()
	}
	return h, ok
}

// ResolveTrace looks a digest up in the trace store, falling through
// memory → disk → peers (when Options.PeerFetch is wired) → miss.  A
// memory hit (and a small disk hit, which is decoded back into the
// memory tier — a promotion) serves O(1)-seekable cursors over the
// in-memory trace; a large disk hit serves incrementally decoded file
// streams, each refused at open when the file's header no longer
// matches the store's entry, so replay memory stays O(batch) however
// long the trace is.  A peer hit streams the fetched container into the
// local store (see installStream: disk tier when configured, memory
// too when it is a small version-4 body) and then resolves locally, so
// the next lookup is a local hit.  Each call counts one hit or miss;
// callers that only need a digest's record count use TraceRecords,
// which counts none.
func (c *traceStore) ResolveTrace(digest string) (TraceHandle, bool) {
	h, ok := c.locate(digest)
	if !ok {
		return TraceHandle{}, false
	}
	c.traceHits.Inc()
	// The file must hold the digest it is indexed under: a valid
	// container of another trace (replaced out-of-band) is not it.
	if h.mem == nil && h.file.FileBytes <= c.promoteMaxFileBytes() {
		if t, err := tracefile.OpenFile(h.file.Path); err == nil && t.Digest() == digest {
			c.promotes.Inc()
			// Another goroutine may have promoted the same digest while
			// this one was decoding; admitting it again is idempotent.
			c.admit(digest, t, tracefile.SpoolInfo{}, false)
			h.mem = t
		}
		// A disk-tier file that no longer loads or holds another digest
		// (deleted, corrupted or replaced out-of-band) degrades to the
		// streaming path.  Its opener refuses a file whose header
		// disagrees with the entry (another trace's container) and
		// surfaces one that no longer decodes, but a stream is never
		// hashed, so a payload altered under an intact header replays
		// as it decodes.
	}
	return h, true
}

// TraceRecords returns a stored trace's record count from the store's
// indexes — the memory tier's trace or the disk tier's entry — under
// one lock, opening, decoding and promoting nothing and counting no
// hit: building a job and its cache key needs only the count, and a
// job answered from the result cache never replays the trace.  A
// memory-tier hit still refreshes the trace's LRU position.  Only
// when neither local tier knows the digest does it fall through to
// the peers and install what one holds; a digest no tier or peer holds
// counts a miss.
func (c *traceStore) TraceRecords(digest string) (uint64, bool) {
	h, ok := c.locate(digest)
	return h.Records, ok
}

// fetchFromPeer is locate's peer leg: pull the digest's container
// from whichever peer holds it, validate every byte (the spool
// re-digests the content), and install it locally, reporting whether
// it did.  A body whose content digests to something else is rejected
// and never indexed under the requested digest — a misbehaving peer
// cannot poison the local store.  A rejected body does not end the
// lookup: the fetch is retried with the offending peer excluded, so a
// corrupt or dying primary owner falls through to the next holder.
func (c *traceStore) fetchFromPeer(digest string) bool {
	if c.peerFetch == nil {
		return false
	}
	const maxAttempts = 3
	var exclude []string
	for attempt := 0; attempt < maxAttempts; attempt++ {
		body, peer, err := c.peerFetch(digest, exclude)
		if err != nil {
			// The transport already fell through every reachable peer.
			log.Printf("service: peer fetch %s: %v", digest, err)
			return false
		}
		if body == nil {
			return false
		}
		_, err = c.installStream(body, digest)
		body.Close()
		if err == nil {
			c.peerFetches.Inc()
			return true
		}
		c.peerRejects.Inc()
		log.Printf("service: peer fetch %s: rejected body: %v", digest, err)
		if peer == "" {
			// No peer identity to exclude: retrying would just ask the
			// same source again.
			return false
		}
		exclude = append(exclude, peer)
	}
	return false
}

// HasTrace reports whether the digest resolves from the local tiers
// alone — no peer traffic, no hit/miss accounting.  Routing layers use
// it to decide whether a digest-referenced request needs forwarding.
func (c *traceStore) HasTrace(digest string) bool {
	_, ok := c.lookup(digest)
	return ok
}

// WriteTraceTo streams the stored trace for a digest to w as a
// version-4 container, serving the memory tier's encoding or copying
// the disk tier's file without decoding it.  It reports the bytes
// written and whether the digest was found; an error with zero bytes
// written means nothing reached w, so a server can still answer with
// an error status.
func (c *traceStore) WriteTraceTo(digest string, w io.Writer) (int64, bool, error) {
	h, ok := c.lookup(digest)
	if !ok {
		c.traceMisses.Inc()
		return 0, false, nil
	}
	c.traceHits.Inc()
	if h.mem != nil {
		n, err := h.mem.WriteTo(w)
		return n, true, err
	}
	f, err := os.Open(h.file.Path)
	if err != nil {
		return 0, true, err
	}
	defer f.Close()
	n, err := io.Copy(w, f)
	return n, true, err
}

// TraceDigests returns every digest the local tiers hold (memory and
// disk, deduplicated, sorted).  It feeds the cluster repair loop's
// scan; no hit/miss accounting.
func (c *traceStore) TraceDigests() []string {
	infos := c.Traces()
	out := make([]string, len(infos))
	for i, info := range infos {
		out[i] = info.Digest
	}
	sort.Strings(out)
	return out
}

// TraceInfo describes one stored trace.  Bytes is what the memory tier
// holds for it (the plane-split v4 form — the byte-bounded LRU is
// bounded on this; 0 for a disk-only trace), DiskBytes what the disk
// tier spends on its file (0 without a disk tier), and CanonicalBytes
// what the same stream costs in the uncompressed canonical encoding, so
// each tier's density win is observable per trace.  The JSON form is
// an entry of cmd/tlrserve's GET /v1/traces listing.
type TraceInfo struct {
	Digest         string `json:"digest"`
	Records        uint64 `json:"records"`
	Bytes          int    `json:"bytes"`
	CanonicalBytes int    `json:"canonicalBytes"`
	// Tier is "memory", "disk", or "memory+disk".
	Tier      string `json:"tier"`
	DiskBytes int64  `json:"diskBytes,omitempty"`
}

// info describes a digest from whichever tiers hold it; c.mu must be
// held.
func (c *traceStore) info(digest string) TraceInfo {
	info := TraceInfo{Digest: digest}
	if el, ok := c.items[digest]; ok {
		t := el.Value.(*traceEntry).t
		info.Records, info.Bytes, info.CanonicalBytes = t.Records(), t.Bytes(), t.CanonicalBytes()
		info.Tier = "memory"
	}
	if d, ok := c.disk[digest]; ok {
		info.DiskBytes = d.FileBytes
		if info.Tier == "" {
			info.Records, info.CanonicalBytes = d.Records, int(d.CanonicalBytes)
			info.Tier = "disk"
		} else {
			info.Tier = "memory+disk"
		}
	}
	return info
}

// Traces lists the stored traces: the memory tier most recently used
// first, then disk-only traces.
func (c *traceStore) Traces() []TraceInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceInfo, 0, len(c.items)+len(c.disk))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, c.info(el.Value.(*traceEntry).digest))
	}
	var diskOnly []string
	for d := range c.disk {
		if _, inMem := c.items[d]; !inMem {
			diskOnly = append(diskOnly, d)
		}
	}
	sort.Strings(diskOnly)
	for _, d := range diskOnly {
		out = append(out, c.info(d))
	}
	return out
}
