package tlr

import (
	"context"
	"testing"
)

// TestMeasureBatchMixedKinds: a Study and an RTM request in one RunBatch
// agree with a fresh Batcher and are answered from cache when rerun.
func TestMeasureBatchMixedKinds(t *testing.T) {
	reqs := []Request{
		{Workload: "compress", RTM: &RTMConfig{Geometry: Geometry512, Heuristic: ILREXP},
			Skip: 500, Budget: 10_000},
		{Workload: "li", Study: &StudyConfig{Budget: 10_000, Skip: 500, Window: 256}},
	}
	b := NewBatcher(BatchOptions{Workers: 2})
	defer b.Close()
	res, err := b.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].RTM == nil || res[0].Study != nil {
		t.Errorf("job 0 should be an RTM result: %+v", res[0])
	}
	if res[1].Study == nil || res[1].RTM != nil {
		t.Errorf("job 1 should be a study result: %+v", res[1])
	}
	if res[1].Study.TLR.Speedups[0] < 1 {
		t.Errorf("TLR speedup %v < 1", res[1].Study.TLR.Speedups)
	}

	// The same study on a fresh Batcher must agree exactly.
	fresh := NewBatcher(BatchOptions{Workers: 1})
	defer fresh.Close()
	direct, err := fresh.Run(context.Background(), reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cached {
		t.Fatal("fresh Batcher must simulate, not hit a cache")
	}
	if direct.Study.TLR.Speedups[0] != res[1].Study.TLR.Speedups[0] {
		t.Errorf("batch study %v != fresh study %v",
			res[1].Study.TLR.Speedups[0], direct.Study.TLR.Speedups[0])
	}

	// Rerunning the batch is answered from cache with identical values.
	res2, err := b.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res2 {
		if !res2[i].Cached {
			t.Errorf("job %d not cached on second run", i)
		}
	}
	if res2[0].RTM.ReusedFraction() != res[0].RTM.ReusedFraction() {
		t.Error("cached RTM result differs")
	}
	if st := b.Stats(); st.Ran != 2 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 2 ran and 2 cache hits", st)
	}
}

// TestMeasureBatchSourceJobs: identical Source requests in one RunBatch
// share one simulation.
func TestMeasureBatchSourceJobs(t *testing.T) {
	const src = `
main:   ldi  r9, 1000000
loop:   ldi  r1, 7
        add  r2, r2, r1
        subi r9, r9, 1
        bgtz r9, loop
        halt
`
	req := Request{Source: src, RTM: &RTMConfig{Geometry: Geometry512, Heuristic: IEXP, N: 2}, Budget: 5_000}
	b := NewBatcher(BatchOptions{Workers: 2})
	defer b.Close()
	res, err := b.RunBatch(context.Background(), []Request{req, req})
	if err != nil {
		t.Fatal(err)
	}
	// Identical source + config: the second job coalesces or hits cache.
	if !res[0].Cached && !res[1].Cached {
		t.Errorf("identical jobs should share one simulation: %+v", b.Stats())
	}
	if res[0].RTM.Total() != res[1].RTM.Total() {
		t.Error("identical jobs returned different results")
	}
}

// TestMeasureBatchValidation: one malformed request fails its whole
// RunBatch before any simulation starts, even beside a valid request.
func TestMeasureBatchValidation(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 1})
	defer b.Close()
	good := Request{Workload: "compress", RTM: &RTMConfig{Geometry: Geometry512}, Budget: 100}
	bad := []Request{
		{RTM: &RTMConfig{Geometry: Geometry512}, Budget: 100},                   // no program
		{Workload: "compress"},                                                  // no config
		{Workload: "nope", RTM: &RTMConfig{Geometry: Geometry512}, Budget: 100}, // unknown workload
		{Workload: "compress", RTM: &RTMConfig{Geometry: Geometry512}},          // no budget
		{Workload: "compress", Source: "x",
			RTM: &RTMConfig{Geometry: Geometry512}, Budget: 100}, // two programs
	}
	for i, req := range bad {
		if _, err := b.RunBatch(context.Background(), []Request{good, req}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if st := b.Stats(); st.Ran != 0 {
		t.Errorf("validation failures must not simulate: %+v", st)
	}
}
