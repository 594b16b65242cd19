package tlr

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// passGoldenFile pins the payloads of a replay-grid-shaped batch.
const passGoldenFile = "pass.golden.jsonl"

// Scale of the pinned batch: each recording holds passTraceLen records
// and every cell measures passBudget of them after a shallow and a deep
// skip.
const (
	passTraceLen    = 30_000
	passShallowSkip = 2_000
	passDeepSkip    = 20_000
	passBudget      = 10_000
)

// passWorkloads are the programs the pinned batch records: an integer
// and a floating-point stream.
var passWorkloads = []string{"gcc", "tomcatv"}

// passCells returns the replay-grid-shaped cells over one stored trace at
// one skip: study windows 64/256/1024, ILR EXP at four RTM capacities,
// ILR NE and I(4) EXP at 4K, VP at 256, reuse-distance analysis, and one
// strict, capped study carrying ILP windows.
func passCells(name, digest string, skip uint64) []Request {
	at := func(id string) string { return fmt.Sprintf("%s/%s@%d", name, id, skip) }
	src := TraceRef(digest)
	var reqs []Request
	for _, w := range []int{64, 256, 1024} {
		reqs = append(reqs, Request{ID: at(fmt.Sprintf("study%d", w)), Trace: src,
			Study: &StudyConfig{Budget: passBudget, Skip: skip, Window: w}})
	}
	for _, g := range []Geometry{Geometry512, Geometry4K, Geometry32K, Geometry256K} {
		reqs = append(reqs, Request{ID: at("rtm-exp-" + g.String()), Trace: src, Skip: skip, Budget: passBudget,
			RTM: &RTMConfig{Geometry: g, Heuristic: ILREXP}})
	}
	reqs = append(reqs,
		Request{ID: at("rtm-ne-4k"), Trace: src, Skip: skip, Budget: passBudget,
			RTM: &RTMConfig{Geometry: Geometry4K, Heuristic: ILRNE}},
		Request{ID: at("rtm-i4-4k"), Trace: src, Skip: skip, Budget: passBudget,
			RTM: &RTMConfig{Geometry: Geometry4K, Heuristic: IEXP, N: 4}},
		Request{ID: at("vp256"), Trace: src, Skip: skip, Budget: passBudget, VP: &VPConfig{Window: 256}},
		Request{ID: at("analyze"), Trace: src, Skip: skip, Budget: passBudget, Analyze: &AnalyzeConfig{}},
		Request{ID: at("strict16"), Trace: src, Study: &StudyConfig{Budget: passBudget, Skip: skip, Window: 256,
			Strict: true, MaxRunLen: 16, ILPWindows: []int{16, 256, 0}}},
	)
	return reqs
}

// passBatch records every pass workload into a fresh Batcher's store and
// returns the batch of cells over all of them.
func passBatch(t testing.TB, b *Batcher) []Request {
	t.Helper()
	var reqs []Request
	for _, w := range passWorkloads {
		tr, err := Record(context.Background(), RecordSpec{Workload: w, Budget: passTraceLen})
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.StoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, skip := range []uint64{passShallowSkip, passDeepSkip} {
			reqs = append(reqs, passCells(w, d, skip)...)
		}
	}
	return reqs
}

// passPayload encodes what a result computed, without its per-run fields
// (index, cache state).
func passPayload(t testing.TB, r Result) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", r.ID, r.Err)
	}
	p, err := json.Marshal(Result{ID: r.ID, Kind: r.Kind, Study: r.Study, RTM: r.RTM, VP: r.VP, Analyze: r.Analyze})
	if err != nil {
		t.Fatal(err)
	}
	return string(p)
}

// TestPassGolden pins the payload of every cell of a replay-grid-shaped
// batch run through RunBatch, byte for byte.  Regenerate (only for an
// intended change of results) with
//
//	go test . -run TestPassGolden -update
func TestPassGolden(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 2})
	defer b.Close()
	res, err := b.RunBatch(context.Background(), passBatch(t, b))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res))
	for i, r := range res {
		got[i] = passPayload(t, r)
	}
	path := filepath.Join("testdata", passGoldenFile)
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, the batch produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden line %d differs:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
