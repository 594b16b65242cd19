package rtm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// testStream generates a deterministic mixed insert/lookup schedule.
type testOp struct {
	insert bool
	pc     uint64
	val    uint64
}

func testStream(seed uint64, n int) []testOp {
	ops := make([]testOp, n)
	rng := seed
	for i := range ops {
		rng = rng*6364136223846793005 + 1442695040888963407
		ops[i] = testOp{
			insert: rng>>13&1 == 0,
			pc:     rng >> 40 & 0x3ff,
			val:    rng >> 20 & 0xf,
		}
	}
	return ops
}

func opSummary(op testOp) trace.Summary {
	return sum(op.pc, 2+int(op.val&3),
		[]trace.Ref{{Loc: trace.IntReg(1), Val: op.val}},
		[]trace.Ref{{Loc: trace.IntReg(2), Val: op.val + 1}})
}

// TestShardedMatchesUnsharded drives the identical operation sequence
// through an RTM and a Sharded on one goroutine: the striping must not
// change any observable behaviour (stats, occupancy, per-op outcomes).
func TestShardedMatchesUnsharded(t *testing.T) {
	geom := Geometry{Sets: 32, PCWays: 2, TracesPerPC: 2}
	plain := New(geom, 1)
	for _, nshards := range []int{1, 2, 4, 8} {
		sharded := NewSharded(geom, 1, nshards)
		if got := sharded.Shards(); got != nshards {
			t.Fatalf("Shards() = %d, want %d", got, nshards)
		}
		if got := sharded.Geometry(); got != geom {
			t.Fatalf("Geometry() = %v, want %v", got, geom)
		}
	}

	sharded := NewSharded(geom, 1, 4)
	for i, op := range testStream(42, 50000) {
		if op.insert {
			s := opSummary(op)
			plain.Insert(s)
			sharded.Insert(s)
			continue
		}
		st := fakeState{trace.IntReg(1): op.val}
		pe := plain.Lookup(op.pc, st)
		ss, ok := sharded.Lookup(op.pc, st)
		if (pe != nil) != ok {
			t.Fatalf("op %d: plain hit=%v sharded hit=%v", i, pe != nil, ok)
		}
		if pe != nil && (ss.StartPC != pe.Sum.StartPC || ss.Len != pe.Sum.Len || ss.Next != pe.Sum.Next) {
			t.Fatalf("op %d: summaries differ: plain %+v sharded %+v", i, pe.Sum, ss)
		}
	}
	if p, s := plain.Stats(), sharded.Stats(); p != s {
		t.Errorf("stats diverged:\nplain   %+v\nsharded %+v", p, s)
	}
	if p, s := plain.Stored(), sharded.Stored(); p != s {
		t.Errorf("Stored: plain %d, sharded %d", p, s)
	}
	pt, st := plain.TopTraces(5), sharded.TopTraces(5)
	if len(pt) != len(st) {
		t.Fatalf("TopTraces lengths: plain %d, sharded %d", len(pt), len(st))
	}
	for i := range pt {
		if pt[i] != st[i] {
			t.Errorf("TopTraces[%d]: plain %+v, sharded %+v", i, pt[i], st[i])
		}
	}
}

// TestShardedConcurrentStress hammers one Sharded from many goroutines
// (run under -race) and checks the merged counters stay consistent with
// the number of operations issued.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30000
	)
	geom := Geometry{Sets: 64, PCWays: 2, TracesPerPC: 2}
	m := NewSharded(geom, 1, 8)

	var lookups, hits, inserts atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var nl, nh, ni uint64
			for _, op := range testStream(uint64(g+1), perG) {
				if op.insert {
					m.Insert(opSummary(op))
					ni++
					continue
				}
				if _, ok := m.Lookup(op.pc, fakeState{trace.IntReg(1): op.val}); ok {
					nh++
				}
				nl++
			}
			lookups.Add(nl)
			hits.Add(nh)
			inserts.Add(ni)
		}(g)
	}
	wg.Wait()

	st := m.Stats()
	if st.Lookups != lookups.Load() {
		t.Errorf("Lookups = %d, want %d", st.Lookups, lookups.Load())
	}
	if st.Hits != hits.Load() {
		t.Errorf("Hits = %d, issued lookups saw %d", st.Hits, hits.Load())
	}
	if st.Hits > st.Lookups {
		t.Errorf("Hits %d > Lookups %d", st.Hits, st.Lookups)
	}
	if got := st.Inserts + st.Refreshes + st.RejectedShort; got != inserts.Load() {
		t.Errorf("Inserts+Refreshes+RejectedShort = %d, want %d", got, inserts.Load())
	}
	if cap, got := geom.Entries(), m.Stored(); got > cap {
		t.Errorf("Stored %d exceeds capacity %d", got, cap)
	}
	if int(st.Inserts)-int(st.TraceEvicts) != m.Stored() {
		t.Errorf("Inserts(%d) - TraceEvicts(%d) = %d, Stored = %d",
			st.Inserts, st.TraceEvicts, int(st.Inserts)-int(st.TraceEvicts), m.Stored())
	}
}

// TestShardedInvalidation checks the valid-bit mode broadcast: a write to
// a live-in location kills matching entries in every stripe.
func TestShardedInvalidation(t *testing.T) {
	geom := Geometry{Sets: 8, PCWays: 2, TracesPerPC: 2}
	m := NewSharded(geom, 1, 4)
	m.EnableInvalidation()
	// One trace per stripe, all reading IntReg(7).
	for pc := uint64(0); pc < 4; pc++ {
		m.Insert(sum(pc, 2,
			[]trace.Ref{{Loc: trace.IntReg(7), Val: 1}},
			[]trace.Ref{{Loc: trace.IntReg(8), Val: 2}}))
	}
	if got := m.Stored(); got != 4 {
		t.Fatalf("Stored = %d, want 4", got)
	}
	m.NotifyWrite(trace.IntReg(7))
	if got := m.Stored(); got != 0 {
		t.Errorf("Stored after invalidating write = %d, want 0", got)
	}
	if st := m.Stats(); st.Invalidations != 4 {
		t.Errorf("Invalidations = %d, want 4", st.Invalidations)
	}
}

// tornKey builds the summary whose every field derives from k, so a
// reader can tell a consistent copy from one mixing two stored traces.
func tornKey(k uint64) trace.Summary {
	pc := k & 3
	outs := make([]trace.Ref, 1+k%5)
	for i := range outs {
		outs[i] = trace.Ref{Loc: trace.Mem(uint64(i)), Val: k*100 + uint64(i)}
	}
	return sum(pc, 1+int(k), []trace.Ref{{Loc: trace.IntReg(1), Val: k % 3}}, outs)
}

// checkTorn reports how a returned summary departs from tornKey.
func checkTorn(s trace.Summary, pc uint64) error {
	k := uint64(s.Len - 1)
	if want := tornKey(k); s.StartPC != pc || !reflect.DeepEqual(s, want) {
		return fmt.Errorf("torn summary at pc %d: %+v, want %+v", pc, s, want)
	}
	return nil
}

// TestShardedLookupNeverTorn hammers a tiny Sharded RTM with concurrent
// Inserts, which recycle entries and rewrite stored summaries in place,
// and Lookups.  Every summary a Lookup returns must be one stored trace,
// whole, and must stay so while the inserts go on.
func TestShardedLookupNeverTorn(t *testing.T) {
	m := NewSharded(Geometry{Sets: 2, PCWays: 1, TracesPerPC: 2}, 1, 2)
	const goroutines, perG = 4, 20000
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held []trace.Summary
			var heldPC []uint64
			for i := 0; i < perG; i++ {
				k := uint64(rng.Intn(60))
				if rng.Intn(2) == 0 {
					m.Insert(tornKey(k))
					continue
				}
				pc := k & 3
				s, ok := m.Lookup(pc, fakeState{trace.IntReg(1): k % 3})
				if !ok {
					continue
				}
				if err := checkTorn(s, pc); err != nil {
					errs <- err
					return
				}
				held, heldPC = append(held, s), append(heldPC, pc)
				if len(held) == 16 {
					for j := range held {
						if err := checkTorn(held[j], heldPC[j]); err != nil {
							errs <- fmt.Errorf("after later inserts: %w", err)
							return
						}
					}
					held, heldPC = held[:0], heldPC[:0]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Hits == 0 || st.TraceEvicts == 0 {
		t.Fatalf("stats %+v: the test needs hits and evictions", st)
	}
}
