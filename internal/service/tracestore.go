package service

import (
	"container/list"
	"sort"

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
// fall through memory → disk — serving small disk hits by promoting
// them back into memory and large ones as incrementally-decoded file
// streams, so replaying an N-record stored trace needs O(batch) memory,
// not O(N).
//
// Not safe for concurrent use; Service serialises access under its own
// mutex and keeps file I/O outside it (see Service.AddTrace and
// friends): the store only ever records the *outcome* of disk work.
type traceStore struct {
	capBytes int64
	bytes    int64
	items    map[string]*list.Element
	order    *list.List // front = most recently used

	dir       string // "" = no disk tier
	disk      map[string]tracefile.SpoolInfo
	diskBytes int64
}

type traceEntry struct {
	digest string
	t      *tracefile.Trace
}

func newTraceStore(capBytes int64, dir string) *traceStore {
	return &traceStore{
		capBytes: capBytes,
		items:    make(map[string]*list.Element),
		order:    list.New(),
		dir:      dir,
		disk:     make(map[string]tracefile.SpoolInfo),
	}
}

// promoteMaxFileBytes is the largest disk-tier file a lookup will
// decode back into the memory tier, and the largest declared version-4
// payload (the in-memory form) an upload keeps in memory as it spools;
// larger traces are served as streams until a lookup promotes them.
// The threshold is a fraction of the memory capacity so one promotion
// or upload cannot wipe most of the cache (the decoded in-memory form
// is a few times the compressed file).
func (c *traceStore) promoteMaxFileBytes() int64 { return c.capBytes / 8 }

// add admits t to the memory tier under its digest and returns the
// digest.  Without a disk tier the newest trace is always admitted —
// even one larger than the capacity, which otherwise could be stored
// and then never found — and older traces are evicted until the store
// fits.  With a disk tier (where every stored trace also has a file,
// see addDisk), a trace larger than the whole memory budget stays
// disk-only, and evicted traces simply drop from memory.
func (c *traceStore) add(t *tracefile.Trace) string {
	d := t.Digest()
	if el, ok := c.items[d]; ok {
		c.order.MoveToFront(el)
		return d
	}
	if int64(t.Bytes()) > c.capBytes {
		// Keep an over-budget trace disk-only — but only when its disk
		// copy actually exists (a failed write-through must not lose the
		// trace from every tier).
		if _, onDisk := c.disk[d]; onDisk {
			return d
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
	return d
}

// addDisk records a digest-named file as the disk tier's copy of a
// trace (the records themselves stay on disk) and reports whether the
// digest is new to the disk tier.
func (c *traceStore) addDisk(e tracefile.SpoolInfo) bool {
	old, ok := c.disk[e.Digest]
	if ok {
		c.diskBytes -= old.FileBytes
	}
	c.disk[e.Digest] = e
	c.diskBytes += e.FileBytes
	return !ok
}

// get returns the memory tier's trace for a digest, refreshing LRU
// order.  Disk-tier fall-through is the Service's job (it owns the file
// I/O); see Service.ResolveTrace.
func (c *traceStore) get(digest string) (*tracefile.Trace, bool) {
	el, ok := c.items[digest]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*traceEntry).t, true
}

// records returns a digest's record count from whichever tier indexes
// it, reading neither tier's data.  A memory-tier hit refreshes LRU
// order as get does: a trace whose requests are all answered from the
// result cache is still in use, and without a disk tier its eviction
// would lose it.
func (c *traceStore) records(digest string) (uint64, bool) {
	if el, ok := c.items[digest]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*traceEntry).t.Records(), true
	}
	if e, ok := c.disk[digest]; ok {
		return e.Records, true
	}
	return 0, false
}

// getDisk returns the disk tier's metadata for a digest.
func (c *traceStore) getDisk(digest string) (tracefile.SpoolInfo, bool) {
	e, ok := c.disk[digest]
	return e, ok
}

func (c *traceStore) len() int { return c.order.Len() }

// digests returns every digest held in either tier, sorted, with no
// duplicates.  It is the anti-entropy repair loop's scan source.
func (c *traceStore) digests() []string {
	out := make([]string, 0, len(c.items)+len(c.disk))
	for d := range c.items {
		out = append(out, d)
	}
	for d := range c.disk {
		if _, inMem := c.items[d]; !inMem {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// diskLen returns the number of disk-tier entries.
func (c *traceStore) diskLen() int { return len(c.disk) }

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

// info describes a digest from whichever tiers hold it.
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

// list returns the stored traces: the memory tier most recently used
// first, then disk-only traces.
func (c *traceStore) list() []TraceInfo {
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
