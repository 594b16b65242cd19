package rtm

import (
	"runtime"
	"sort"
	"sync"

	"github.com/tracereuse/tlr/internal/trace"
)

// Sharded is a concurrency-safe RTM: the geometry's sets are striped
// across independently locked shards by set index, so goroutines touching
// different sets proceed in parallel.  Shard s owns the global sets whose
// index is ≡ s mod nshards, and each stripe addresses them exactly as the
// unsharded RTM would, so a single-threaded driver observes identical
// behaviour (same hits, evictions and LRU decisions) from Sharded and
// RTM — the striping changes only the locking, never the paper's §4.6
// semantics.
//
// Lookup returns a deep copy of the matching trace summary taken under
// the shard lock: concurrent Inserts rewrite stored summaries in place
// (dynamic trace expansion, recycled entries), and the copy keeps
// readers off them.
type Sharded struct {
	shards []rtmShard
	mask   uint64 // nshards - 1
}

type rtmShard struct {
	mu sync.Mutex
	m  *RTM
	// pad keeps neighbouring shards' locks off one cache line.
	_ [64]byte
}

// NewSharded builds an empty concurrent RTM with the given geometry.
// nshards is rounded up to a power of two and capped at geom.Sets
// (0 = auto: sized to GOMAXPROCS).
func NewSharded(geom Geometry, minLen, nshards int) *Sharded {
	if nshards <= 0 {
		nshards = 2 * runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < nshards && p < geom.Sets && p < 256 {
		p <<= 1
	}
	s := &Sharded{shards: make([]rtmShard, p), mask: uint64(p - 1)}
	for i := range s.shards {
		s.shards[i].m = newShard(geom, minLen, p)
	}
	return s
}

// Shards returns the stripe count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Geometry returns the (global) RTM shape.
func (s *Sharded) Geometry() Geometry {
	g := s.shards[0].m.Geometry()
	g.Sets *= len(s.shards)
	return g
}

// EnableInvalidation switches every stripe to the §3.3 valid-bit reuse
// test.  Must be called before any Insert.
func (s *Sharded) EnableInvalidation() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m.EnableInvalidation()
		sh.mu.Unlock()
	}
}

func (s *Sharded) shardOf(pc uint64) *rtmShard { return &s.shards[pc&s.mask] }

// Lookup performs the reuse test at a fetch of pc against st, returning a
// deep copy of the longest matching trace summary.  st is read under the shard
// lock, so a caller's private CPU state needs no extra synchronisation.
func (s *Sharded) Lookup(pc uint64, st State) (trace.Summary, bool) {
	sh := s.shardOf(pc)
	sh.mu.Lock()
	e := sh.m.Lookup(pc, st)
	if e == nil {
		sh.mu.Unlock()
		return trace.Summary{}, false
	}
	sum := e.Sum.Clone()
	sh.mu.Unlock()
	return sum, true
}

// Insert stores a collected trace (see RTM.Insert).
func (s *Sharded) Insert(sum trace.Summary) {
	sh := s.shardOf(sum.StartPC)
	sh.mu.Lock()
	sh.m.Insert(sum)
	sh.mu.Unlock()
}

// NotifyWrite invalidates every stored trace reading loc (valid-bit mode;
// a no-op otherwise).  A write can hit traces of any starting PC, so it
// visits every stripe.
func (s *Sharded) NotifyWrite(loc trace.Loc) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m.NotifyWrite(loc)
		sh.mu.Unlock()
	}
}

// Stats returns the traffic counters summed over the stripes.
func (s *Sharded) Stats() Stats {
	var t Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.m.Stats()
		sh.mu.Unlock()
		t.Lookups += st.Lookups
		t.Hits += st.Hits
		t.Inserts += st.Inserts
		t.Refreshes += st.Refreshes
		t.TraceEvicts += st.TraceEvicts
		t.PCEvicts += st.PCEvicts
		t.RejectedShort += st.RejectedShort
		t.Invalidations += st.Invalidations
		t.Stillborn += st.Stillborn
	}
	return t
}

// Stored returns the number of traces currently held.
func (s *Sharded) Stored() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.m.Stored()
		sh.mu.Unlock()
	}
	return n
}

// TopTraces returns the k stored traces with the most reuses across all
// stripes, in descending hit order.
func (s *Sharded) TopTraces(k int) []TraceProfile {
	var all []TraceProfile
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		all = append(all, sh.m.TopTraces(k)...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		return all[i].StartPC < all[j].StartPC
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
