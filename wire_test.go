package tlr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/rtm"
)

// wireRequests is one request of every configuration kind, as the wire
// tests and the wire fuzz seeds use them.
func wireRequests() []Request {
	return []Request{
		{ID: "s", Workload: "gcc", Study: &StudyConfig{
			Budget: 1000, Skip: 10, Window: 256,
			ILRLatencies: []float64{1, 2},
			TLRVariants:  []Latency{ConstLatency(1), PropLatency(0.5)},
			Strict:       true, MaxRunLen: 16,
		}},
		{ID: "r", Workload: "li", RTM: &RTMConfig{
			Geometry: Geometry4K, Heuristic: IEXP, N: 4, MinLen: 2, InvalidateOnWrite: true,
		}, Skip: 100, Budget: 2000},
		{ID: "p", Workload: "li", Pipeline: &PipelineConfig{
			FetchWidth: 8, Window: 128, FrontLat: 3, ReuseLat: 2, WaitForOperands: true,
			RTM: &RTMConfig{Geometry: Geometry512, Heuristic: ILREXP},
		}, Budget: 2000},
		{ID: "v", Workload: "li", VP: &VPConfig{Window: 64, PredLat: 2}, Budget: 2000},
	}
}

// TestRequestWireRoundTrip marshals one request of every kind and
// decodes it back, checking the semantic payload survives.
func TestRequestWireRoundTrip(t *testing.T) {
	for _, req := range wireRequests() {
		t.Run(string(req.Kind()), func(t *testing.T) {
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), `"v":1`) {
				t.Errorf("wire form must be versioned: %s", data)
			}
			if !strings.Contains(string(data), `"kind":"`+string(req.Kind())+`"`) {
				t.Errorf("wire form must name its kind: %s", data)
			}
			var back Request
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(req, back) {
				t.Errorf("round trip changed the request:\nin  %+v\nout %+v", req, back)
			}
		})
	}
}

// TestRequestWireProgBecomesSource: a request carrying an assembled
// program crosses the wire as its disassembly, and the decoded request
// still runs to the same result.
func TestRequestWireProgBecomesSource(t *testing.T) {
	prog, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Prog: prog, VP: &VPConfig{}, Budget: 500}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Prog != nil || back.Source == "" {
		t.Fatalf("prog should travel as source: %+v", back)
	}
	reprog, err := Assemble(back.Source)
	if err != nil {
		t.Fatalf("wire source does not assemble: %v", err)
	}
	if len(reprog.Insts) != len(prog.Insts) {
		t.Errorf("wire source assembles to %d insts, want %d", len(reprog.Insts), len(prog.Insts))
	}
}

// TestRequestWireCompat: the pre-versioned server spelling — explicit
// kind, tlrConst/tlrProp latency lists, no "v" — still decodes.
func TestRequestWireCompat(t *testing.T) {
	var req Request
	if err := json.Unmarshal([]byte(legacyRequest), &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind() != KindStudy || req.Study.Budget != 1000 {
		t.Fatalf("bad decode: %+v", req)
	}
	want := []Latency{ConstLatency(1), ConstLatency(2), PropLatency(0.5)}
	if !reflect.DeepEqual(req.Study.TLRVariants, want) {
		t.Errorf("variants = %v, want %v", req.Study.TLRVariants, want)
	}
}

// legacyRequest is the pre-versioned server spelling of a study request.
const legacyRequest = `{"id": "cell1", "workload": "gcc", "kind": "study",
	"study": {"budget": 1000, "window": 256, "tlrConst": [1, 2], "tlrProp": [0.5]}}`

// badRequests must each fail to decode.
var badRequests = []string{
	`{"v": 2, "workload": "li", "vp": {}, "budget": 1}`,
	`{"kind": "rtm", "workload": "li", "vp": {}, "budget": 1}`,
	`{"kind": "nonsense", "workload": "li", "vp": {}, "budget": 1}`,
	`{"workload": "li", "rtm": {"heuristic": "bogus"}, "budget": 1}`,
	`{"workload": "li", "rtm": {"heuristic": 1}, "budget": 1}`,
}

// Decoder-equivalence inputs: a null heuristic, and a legacy study that
// mixes the versioned latency list with both legacy ones.
const (
	nullHeuristicRequest = `{"workload": "li", "rtm": {"geometry": {"sets": 64, "pcWays": 4, "tracesPerPC": 4}, "heuristic": null}, "budget": 1}`
	mixedLatencyRequest  = `{"workload": "gcc", "study": {"budget": 1000, "tlrProp": [0.5, 0.25], "tlrConst": [3],
		"tlrVariants": [{"k": 2}, {"const": 4}, {}]}}`
)

// TestRequestWireDecodeEquivalence pins decoder behaviour the wire
// golden cannot see: a null heuristic means ILR NE, and a study mixing
// the latency spellings lists the versioned variants, then the legacy
// constants, then the legacy proportionals.
func TestRequestWireDecodeEquivalence(t *testing.T) {
	var req Request
	if err := json.Unmarshal([]byte(nullHeuristicRequest), &req); err != nil {
		t.Fatal(err)
	}
	if req.RTM == nil || req.RTM.Heuristic != ILRNE {
		t.Errorf("null heuristic decoded as %+v, want ILR NE", req.RTM)
	}
	req = Request{}
	if err := json.Unmarshal([]byte(mixedLatencyRequest), &req); err != nil {
		t.Fatal(err)
	}
	want := []Latency{PropLatency(2), ConstLatency(4), {}, ConstLatency(3), PropLatency(0.5), PropLatency(0.25)}
	if req.Study == nil || !reflect.DeepEqual(req.Study.TLRVariants, want) {
		t.Errorf("mixed latency spellings decoded as %+v, want variants %v", req.Study, want)
	}
}

// TestRequestWireRejects: future versions and kind/config mismatches
// are decode errors, not silent misreads.
func TestRequestWireRejects(t *testing.T) {
	for _, bad := range badRequests {
		var req Request
		if err := json.Unmarshal([]byte(bad), &req); err == nil {
			t.Errorf("%s: expected decode error", bad)
		}
	}
}

// TestResultWireRoundTrip checks results (including errors) survive the
// wire.
func TestResultWireRoundTrip(t *testing.T) {
	ok := Result{Index: 3, ID: "x", Kind: KindVP, Cached: true,
		VP: &VPResult{Instructions: 10, Predicted: 4, Speedup: 1.5}}
	data, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ok, back) {
		t.Errorf("round trip changed the result:\nin  %+v\nout %+v", ok, back)
	}

	fail := Result{Index: 1, ID: "y", Kind: KindRTM, Err: errors.New("boom")}
	data, err = json.Marshal(fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Errorf("error lost on the wire: %+v", back)
	}
}

// TestHeuristicNames: every heuristic's wire name parses back to itself,
// the paper's spellings are accepted, and an unknown value still has a
// name.
func TestHeuristicNames(t *testing.T) {
	for _, h := range []Heuristic{ILRNE, ILREXP, IEXP} {
		name, err := h.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Heuristic
		if err := got.UnmarshalText(name); err != nil || got != h {
			t.Errorf("%v: parse(%q) = %v, %v", h, name, got, err)
		}
	}
	for s, want := range map[string]Heuristic{
		"":         ILRNE,
		"ilr ne":   ILRNE,
		"ILR_EXP":  ILREXP,
		"I(n) EXP": IEXP,
		"iexp":     IEXP,
	} {
		got := Heuristic(-1)
		if err := got.UnmarshalText([]byte(s)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	var h Heuristic
	if err := h.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bogus heuristic should fail to parse")
	}
	if name, _ := Heuristic(7).MarshalText(); string(name) != "heuristic(7)" {
		t.Errorf("unknown heuristic marshals as %q, want heuristic(7)", name)
	}
}

// wireGoldenFile pins the exact bytes of request and result encodings.
const wireGoldenFile = "wire.golden"

// wireGoldenCases are the encodings wireGoldenFile pins, by name: every
// kind, the defaults a codec could drop or invent (the zero heuristic, a
// zero pipeline, a zero latency), a digest-only trace reference, the
// legacy spelling re-encoded, and a result with and without an error.
func wireGoldenCases(t *testing.T) []struct {
	name string
	v    any
} {
	type c = struct {
		name string
		v    any
	}
	var cases []c
	for _, req := range wireRequests() {
		cases = append(cases, c{"request/" + req.ID, req})
	}
	var legacy Request
	if err := json.Unmarshal([]byte(legacyRequest), &legacy); err != nil {
		t.Fatal(err)
	}
	digest := "sha256:" + strings.Repeat("ab", 32)
	cases = append(cases,
		c{"request/analyze", Request{ID: "a", Workload: "li", Analyze: &AnalyzeConfig{}, Skip: 7, Budget: 500}},
		c{"request/rtm-default-heuristic", Request{Workload: "li", RTM: &RTMConfig{Geometry: Geometry4K}, Budget: 500}},
		c{"request/pipeline-zero", Request{Workload: "li", Pipeline: &PipelineConfig{}, Budget: 500}},
		c{"request/study-ilp-zero-latency", Request{Workload: "gcc", Study: &StudyConfig{
			Budget: 500, TLRVariants: []Latency{{}, PropLatency(0.25)}, ILPWindows: []int{16, 0}}}},
		c{"request/vp-trace-ref", Request{ID: "t", Trace: TraceRef(digest), VP: &VPConfig{}, Budget: 500}},
		c{"request/legacy", legacy},
		c{"result/rtm", Result{Index: 2, ID: "r", Kind: KindRTM, Cached: true, Node: "n1", Forwarded: true,
			RTM: &RTMResult{Executed: 90, Skipped: 10, Hits: 3, Stored: 4, IRBRate: 0.5,
				RTM: rtm.Stats{Lookups: 20, Hits: 3, Inserts: 6, PCEvicts: 1}, Top: []rtm.TraceProfile{{StartPC: 0x40, Len: 5, Hits: 2, Ins: 1, Outs: 2}}}}},
		c{"result/error", Result{Index: 1, ID: "y", Kind: KindRTM, Err: errors.New("boom")}},
	)
	return cases
}

// TestRequestWireGolden checks every case of wireGoldenCases encodes to
// the pinned bytes (-update rewrites them, only for an intended wire
// change).
func TestRequestWireGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range wireGoldenCases(t) {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&buf, "%s\t%s\n", tc.name, b)
	}
	checkGolden(t, wireGoldenFile, buf.Bytes())
}

// checkGolden compares got with testdata/name line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d differs:\n got %s\nwant %s", name, i+1, g, w)
		}
	}
}

// FuzzRequestJSON feeds arbitrary bytes to the request and result
// decoders, which the server runs on every request body and peer
// response: decoding must never panic, and whatever decodes must
// re-encode to a form that decodes and re-encodes to the same bytes.
// Seeds: the wire tests' requests, the legacy spelling, the rejected
// forms, an inline-trace request and a result with an error.
//
//	go test -run='^$' -fuzz=FuzzRequestJSON -fuzztime=10s .
func FuzzRequestJSON(f *testing.F) {
	for _, req := range wireRequests() {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	tr, err := Record(context.Background(), RecordSpec{Workload: "li", Budget: 64})
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(Request{Trace: tr, VP: &VPConfig{Window: 64}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(legacyRequest))
	f.Add([]byte(nullHeuristicRequest))
	f.Add([]byte(mixedLatencyRequest))
	for _, bad := range badRequests {
		f.Add([]byte(bad))
	}
	b, err = json.Marshal(Result{Index: 1, ID: "y", Kind: KindRTM, Err: errors.New("boom")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		stable(t, data, new(Request))
		stable(t, data, new(Result))
	})
}

// stable decodes data into v and, if that succeeds and v re-encodes,
// requires the encoding to decode into a fresh value that re-encodes to
// the same bytes.
func stable[T any](t *testing.T, data []byte, v *T) {
	if json.Unmarshal(data, v) != nil {
		return
	}
	first, err := json.Marshal(v)
	if err != nil {
		return // decodable but not encodable, e.g. a request naming two sources
	}
	var again T
	if err := json.Unmarshal(first, &again); err != nil {
		t.Fatalf("%T re-encoding %s does not decode: %v", v, first, err)
	}
	second, err := json.Marshal(&again)
	if err != nil {
		t.Fatalf("%T re-encoding %s does not encode after a decode: %v", v, first, err)
	}
	if string(first) != string(second) {
		t.Fatalf("%T encoding is not stable:\n first %s\nsecond %s", v, first, second)
	}
}
