package tlr

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
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
// and the paper's spellings are accepted.
func TestHeuristicNames(t *testing.T) {
	for _, h := range []Heuristic{ILRNE, ILREXP, IEXP} {
		got, err := ParseHeuristic(HeuristicName(h))
		if err != nil || got != h {
			t.Errorf("%v: parse(name) = %v, %v", h, got, err)
		}
	}
	for s, want := range map[string]Heuristic{
		"":         ILRNE,
		"ilr ne":   ILRNE,
		"ILR_EXP":  ILREXP,
		"I(n) EXP": IEXP,
		"iexp":     IEXP,
	} {
		if got, err := ParseHeuristic(s); err != nil || got != want {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseHeuristic("bogus"); err == nil {
		t.Error("bogus heuristic should fail to parse")
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
