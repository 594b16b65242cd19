package tlr

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// keyGoldenFile pins the result-cache key of every job kind, so a change
// to what a key covers, or to how it is spelled, is a visible diff.  A
// key change strands every entry already in a -result-dir (it misses
// once and is re-simulated), so it must be deliberate.
const keyGoldenFile = "keys.golden"

// TestJobKeyGolden builds each case's service job the way every entry
// point does and compares its cache key to the pinned one.
func TestJobKeyGolden(t *testing.T) {
	b := NewBatcher(BatchOptions{Workers: 1})
	defer b.Close()
	tr, err := Record(context.Background(), RecordSpec{Workload: "li", Skip: 100, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := b.StoreTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	ref := TraceRef(digest)
	geo := Geometry{Sets: 64, PCWays: 4, TracesPerPC: 4}
	full := &StudyConfig{Budget: 1000, Skip: 200, Window: 256, ILRLatencies: []float64{1, 2.5},
		TLRVariants: []Latency{ConstLatency(2), PropLatency(0.0625), {}}, Strict: true, MaxRunLen: 16,
		ILPWindows: []int{16, 0}}
	cases := []struct {
		name string
		req  Request
	}{
		{"study/workload/defaults", Request{Workload: "gcc", Study: &StudyConfig{Budget: 1000}}},
		{"study/workload/full", Request{Workload: "gcc", Study: full}},
		{"study/source", Request{Source: testLoop, Study: &StudyConfig{Budget: 1000, Window: 64}}},
		{"study/recorded", Request{Trace: tr, Study: &StudyConfig{Budget: 1000, Skip: 200}}},
		{"study/stored", Request{Trace: ref, Study: full}},
		{"rtm/workload", Request{Workload: "li", RTM: &RTMConfig{Geometry: geo, Heuristic: ILREXP}, Skip: 200, Budget: 1000}},
		{"rtm/workload/iexp", Request{Workload: "li", RTM: &RTMConfig{Geometry: geo, Heuristic: IEXP, N: 4, MinLen: 2,
			InvalidateOnWrite: true}, Budget: 1000}},
		{"rtm/workload/verify", Request{Workload: "li", RTM: &RTMConfig{Geometry: geo, Heuristic: ILREXP, Verify: true},
			Skip: 200, Budget: 1000}},
		{"rtm/stored", Request{Trace: ref, RTM: &RTMConfig{Geometry: geo}, Skip: 200, Budget: 1000}},
		{"pipeline/base", Request{Workload: "li", Pipeline: &PipelineConfig{}, Budget: 1000}},
		{"pipeline/full", Request{Workload: "li", Pipeline: &PipelineConfig{FetchWidth: 8, Window: 128, FrontLat: 3,
			ReuseLat: 2, WaitForOperands: true}, Skip: 50, Budget: 1000}},
		{"pipeline/rtm", Request{Workload: "li", Pipeline: &PipelineConfig{RTM: &RTMConfig{Geometry: geo,
			Heuristic: IEXP, N: 2}}, Budget: 1000}},
		{"vp/workload", Request{Workload: "li", VP: &VPConfig{Window: 64, PredLat: 2.5}, Budget: 1000}},
		{"vp/recorded", Request{Trace: tr, VP: &VPConfig{}, Skip: 300, Budget: 1000}},
		{"analyze/workload", Request{Workload: "li", Analyze: &AnalyzeConfig{}, Skip: 10, Budget: 1000}},
		{"analyze/stored/whole", Request{Trace: ref, Analyze: &AnalyzeConfig{}, Skip: 300}},
	}
	var buf bytes.Buffer
	for i, tc := range cases {
		j, _, err := b.serviceJob(i, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if j.Key == "" {
			t.Fatalf("%s: job is unkeyed", tc.name)
		}
		fmt.Fprintf(&buf, "%s\t%s\n", tc.name, j.Key)
	}
	checkGolden(t, keyGoldenFile, buf.Bytes())
}
