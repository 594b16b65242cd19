package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/tracefile"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := newServer(tlr.BatchOptions{Workers: 2})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		srv.batcher.Close()
	})
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRunAllFourKinds drives POST /v1/run once per simulation kind and
// checks each answer carries the matching typed payload.
func TestRunAllFourKinds(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
		check      func(r tlr.Result) bool
	}{
		{"study", `{"workload": "li", "study": {"budget": 8000, "window": 256}}`,
			func(r tlr.Result) bool { return r.Study != nil && r.Study.ILR.Instructions == 8000 }},
		{"rtm", `{"workload": "li", "kind": "rtm",
			"rtm": {"geometry": {"sets": 64, "pcWays": 4, "tracesPerPC": 4}, "heuristic": "ILR EXP"},
			"skip": 500, "budget": 8000}`,
			func(r tlr.Result) bool { return r.RTM != nil && r.RTM.Total() >= 8000 }},
		{"pipeline", `{"workload": "li",
			"pipeline": {"rtm": {"geometry": {"sets": 64, "pcWays": 4, "tracesPerPC": 4}, "heuristic": "IEXP", "n": 4}},
			"budget": 8000}`,
			func(r tlr.Result) bool { return r.Pipeline != nil && r.Pipeline.Retired >= 8000 }},
		{"vp", `{"workload": "li", "vp": {"window": 256}, "budget": 8000}`,
			func(r tlr.Result) bool { return r.VP != nil && r.VP.Instructions == 8000 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts, "/v1/run", c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var res tlr.Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("result error: %v", res.Err)
			}
			if string(res.Kind) != c.name {
				t.Fatalf("kind = %q, want %q", res.Kind, c.name)
			}
			if !c.check(res) {
				t.Fatalf("payload check failed: %+v", res)
			}
		})
	}
}

// TestRunRejectsMalformedRequests: validation failures are a 400, not a
// result with an error.
func TestRunRejectsMalformedRequests(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"workload": "li"}`,                                                                                  // no configuration
		`{"vp": {"window": 1}, "budget": 100}`,                                                                // no program
		`{"workload": "nope", "vp": {"window": 1}, "budget": 100}`,                                            // unknown workload
		`{"workload": "li", "vp": {"window": 1}}`,                                                             // no budget
		`{"workload": "li", "kind": "study", "vp": {"window": 1}}`,                                            // kind/config mismatch
		`{"v": 99, "workload": "li", "vp": {}, "budget": 100}`,                                                // future wire version
		`{"workload": "li", "rtm": {"geometry": {"sets": 63, "pcWays": 1, "tracesPerPC": 1}}, "budget": 100}`, // bad geometry
	} {
		resp := post(t, ts, "/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBatchStreamsAllKindsAndCaches submits a mixed four-kind batch
// twice: the first pass simulates, the second is answered entirely from
// cache with identical payloads — including the two new kinds.
func TestBatchStreamsAllKindsAndCaches(t *testing.T) {
	ts := testServer(t)
	const body = `{"jobs": [
		{"id": "s", "workload": "li", "study": {"budget": 6000, "window": 256}},
		{"id": "r", "workload": "li", "rtm": {"geometry": {"sets": 64, "pcWays": 4, "tracesPerPC": 4}}, "budget": 6000},
		{"id": "p", "workload": "li", "pipeline": {}, "budget": 6000},
		{"id": "v", "workload": "li", "vp": {"window": 256}, "budget": 6000}
	]}`
	read := func() map[string]tlr.Result {
		resp := post(t, ts, "/v1/batch", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		out := map[string]tlr.Result{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var r tlr.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("bad line %q: %v", sc.Text(), err)
			}
			if r.Err != nil {
				t.Fatalf("job %s failed: %v", r.ID, r.Err)
			}
			out[r.ID] = r
		}
		if len(out) != 4 {
			t.Fatalf("got %d results, want 4", len(out))
		}
		return out
	}
	cold := read()
	warm := read()
	for id, w := range warm {
		if !w.Cached {
			t.Errorf("job %s not cached on second pass", id)
		}
	}
	if cold["p"].Pipeline.IPC() != warm["p"].Pipeline.IPC() {
		t.Error("cached pipeline result differs")
	}
	if cold["v"].VP.Speedup != warm["v"].VP.Speedup {
		t.Error("cached vp result differs")
	}

	// The pre-Request wire spelling (kind + tlrConst) still decodes.
	legacy := `{"jobs": [{"id": "lg", "workload": "li", "kind": "study",
		"study": {"budget": 6000, "window": 256, "tlrConst": [1]}}]}`
	resp := post(t, ts, "/v1/batch", legacy)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var r tlr.Result
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil || r.Err != nil {
		t.Fatalf("legacy batch line %q: %v %v", buf.String(), err, r.Err)
	}
	if !r.Cached || r.Study == nil {
		t.Errorf("legacy spelling should hit the cache of the equivalent new-form job: %+v", r)
	}
}

// TestStatsAndWorkloads smoke-tests the read-only endpoints.
func TestStatsAndWorkloads(t *testing.T) {
	ts := testServer(t)
	sections := getStats(t, ts.URL, "runtime", "service")
	var service map[string]json.RawMessage
	if err := json.Unmarshal(sections["service"], &service); err != nil {
		t.Fatal(err)
	}
	// The "service" object's key set is part of the /v1/stats contract.
	want := []string{
		"AnalyzeHits", "AnalyzeRuns", "CacheHits", "Coalesced", "Errors",
		"InflightJobs", "IngestRejects", "IngestedRecords", "IngestedTraces",
		"MaxInflight", "Programs", "Ran", "ResultDiskHits", "ResultDiskWrites",
		"Results", "ResultsOnDisk", "Shed", "Submitted", "TraceBytes",
		"TraceDisk", "TraceDiskBytes", "TraceHits", "TraceMisses",
		"TracePeerFetches", "TracePeerRejects", "TracePromotes", "TraceSpills",
		"Traces",
	}
	var got []string
	for k := range service {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/stats service keys:\n got %v\nwant %v", got, want)
	}
	resp2, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var wl struct {
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) != 14 {
		t.Errorf("workloads = %d, want 14", len(wl.Workloads))
	}
}

// getStats fetches url's /v1/stats and returns its sections, failing
// unless the top-level key set is exactly want (sorted): every counter
// has one rendering, so no hand-regrouped section may appear.
func getStats(t *testing.T, url string, want ...string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sections map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sections); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range sections {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/stats sections:\n got %v\nwant %v", got, want)
	}
	return sections
}

// serviceStats returns the service section of an unclustered node's
// /v1/stats.
func serviceStats(t *testing.T, url string) tlr.BatchStats {
	t.Helper()
	var st tlr.BatchStats
	if err := json.Unmarshal(getStats(t, url, "runtime", "service")["service"], &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// jsonKeys returns the keys of a JSON object in the order they appear.
func jsonKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestTraceListKeys pins the GET /v1/traces body layout: the keys (in
// order) of a memory-tier trace, of a disk-only trace and of the tiers
// object, with diskBytes left out when the trace has no disk copy.
func TestTraceListKeys(t *testing.T) {
	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := rec.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	list := func(opt tlr.BatchOptions) (trace, tiers json.RawMessage) {
		t.Helper()
		srv := newServer(opt)
		ts := httptest.NewServer(srv.mux())
		defer func() {
			ts.Close()
			srv.batcher.Close()
		}()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d", resp.StatusCode)
		}
		lresp, err := http.Get(ts.URL + "/v1/traces")
		if err != nil {
			t.Fatal(err)
		}
		defer lresp.Body.Close()
		body, err := io.ReadAll(lresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonKeys(t, body), []string{"tiers", "traces"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("/v1/traces keys %v, want %v", got, want)
		}
		var listing struct {
			Traces []json.RawMessage `json:"traces"`
			Tiers  json.RawMessage   `json:"tiers"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Traces) != 1 {
			t.Fatalf("listing holds %d traces, want 1: %s", len(listing.Traces), body)
		}
		return listing.Traces[0], listing.Tiers
	}

	mem, tiers := list(tlr.BatchOptions{Workers: 1})
	if got, want := jsonKeys(t, mem), []string{"digest", "records", "bytes", "canonicalBytes", "tier"}; !reflect.DeepEqual(got, want) {
		t.Errorf("memory trace keys %v, want %v (%s)", got, want, mem)
	}
	if got, want := jsonKeys(t, tiers), []string{"disk", "memory", "promotes", "spills"}; !reflect.DeepEqual(got, want) {
		t.Errorf("tiers keys %v, want %v", got, want)
	}
	var occ struct{ Memory, Disk json.RawMessage }
	if err := json.Unmarshal(tiers, &occ); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]json.RawMessage{"memory": occ.Memory, "disk": occ.Disk} {
		if got, want := jsonKeys(t, raw), []string{"bytes", "traces"}; !reflect.DeepEqual(got, want) {
			t.Errorf("tiers.%s keys %v, want %v", name, got, want)
		}
	}

	// A memory tier smaller than the trace keeps the upload disk-only.
	disk, _ := list(tlr.BatchOptions{Workers: 1, TraceStoreBytes: 1024, TraceDir: t.TempDir()})
	if got, want := jsonKeys(t, disk), []string{"digest", "records", "bytes", "canonicalBytes", "tier", "diskBytes"}; !reflect.DeepEqual(got, want) {
		t.Errorf("disk-only trace keys %v, want %v (%s)", got, want, disk)
	}
	var d struct {
		Tier      string `json:"tier"`
		Bytes     int    `json:"bytes"`
		DiskBytes int64  `json:"diskBytes"`
	}
	if err := json.Unmarshal(disk, &d); err != nil {
		t.Fatal(err)
	}
	if d.Tier != "disk" || d.Bytes != 0 || d.DiskBytes <= 0 {
		t.Errorf("disk-only trace %s", disk)
	}
}

// TestTraceUploadAndDigestRun is the record -> upload -> digest-sweep
// workflow end to end: a trace recorded from a workload is uploaded
// once, referenced by digest for a study run, and the answer must be
// cache-shared with (and identical to) the same request naming the
// workload — including a trace-driven RTM replay.
func TestTraceUploadAndDigestRun(t *testing.T) {
	ts := testServer(t)

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "li", Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var up struct {
		Digest  string `json:"digest"`
		Records uint64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Digest != rec.Digest() || up.Records != rec.Records() {
		t.Fatalf("upload answered %+v, want %s/%d", up, rec.Digest(), rec.Records())
	}

	// GET /v1/traces lists it.
	lresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []struct {
			Digest string `json:"digest"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].Digest != up.Digest {
		t.Fatalf("listing %+v", listing)
	}

	decode := func(resp *http.Response) tlr.Result {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var r tlr.Result
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}

	study := `"study": {"budget": 10000, "window": 256}`
	byTrace := decode(post(t, ts, "/v1/run", `{"trace": {"digest": "`+up.Digest+`"}, `+study+`}`))
	byName := decode(post(t, ts, "/v1/run", `{"workload": "li", `+study+`}`))
	if !reflect.DeepEqual(byTrace.Study, byName.Study) {
		t.Errorf("digest-referenced study differs from workload-backed:\n%+v\n%+v", byTrace.Study, byName.Study)
	}

	// Trace-driven RTM replay through the same store.
	rtmBody := `"rtm": {"geometry": {"sets": 64, "pcWays": 4, "tracesPerPC": 4}, "heuristic": "IEXP", "n": 4}, "budget": 10000`
	rtmByTrace := decode(post(t, ts, "/v1/run", `{"trace": {"digest": "`+up.Digest+`"}, `+rtmBody+`}`))
	rtmByName := decode(post(t, ts, "/v1/run", `{"workload": "li", `+rtmBody+`}`))
	if !reflect.DeepEqual(rtmByTrace.RTM, rtmByName.RTM) {
		t.Errorf("digest-referenced rtm differs from workload-backed:\n%+v\n%+v", rtmByTrace.RTM, rtmByName.RTM)
	}

	// Unknown digests and pipeline-with-trace are 400s.
	if resp := post(t, ts, "/v1/run", `{"trace": {"digest": "sha256:nope"}, `+study+`}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown digest: status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/run", `{"trace": {"digest": "`+up.Digest+`"}, "pipeline": {}, "budget": 1000}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pipeline+trace: status %d", resp.StatusCode)
	}

	// Garbage uploads are rejected by the hardened parser.
	gresp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", strings.NewReader("NOTATRACE"))
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d", gresp.StatusCode)
	}
}

// TestUndefinedLocationKindUploadRejected: a version-1 body whose
// second record reads a location of the undefined kind 3 is a bad
// request, for a memory-only server and for one with a disk tier, and
// neither stores anything — a trace the store could not write back out
// as a readable container never enters it.
func TestUndefinedLocationKindUploadRejected(t *testing.T) {
	body := append(tracefile.Magic[:], 1, 0, 0, 0)
	for pc, loc := range []uint64{1, 3<<62 | 5, 1} {
		// add, nIn 1, sequential next: flags, op, latency, pc, then the
		// input's location and value.
		body = append(body, 0x21, 0x1B, 1)
		body = binary.AppendUvarint(body, uint64(pc))
		body = binary.AppendUvarint(body, loc)
		body = binary.AppendUvarint(body, 7)
	}
	for _, opt := range []tlr.BatchOptions{{Workers: 1}, {Workers: 1, TraceDir: t.TempDir()}} {
		srv := newServer(opt)
		ts := httptest.NewServer(srv.mux())
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "undefined kind") {
			t.Errorf("trace dir %q: upload answers %d %q, want 400 naming the undefined kind", opt.TraceDir, resp.StatusCode, msg)
		}
		if digests := srv.batcher.TraceDigests(); len(digests) != 0 {
			t.Errorf("trace dir %q: the store holds %v after a refused upload", opt.TraceDir, digests)
		}
		if opt.TraceDir != "" {
			if ents, err := os.ReadDir(opt.TraceDir); err != nil || len(ents) != 0 {
				t.Errorf("refused upload left %d entries in the trace dir (%v)", len(ents), err)
			}
		}
		ts.Close()
		srv.batcher.Close()
	}
}

// TestTraceDownloadRoundTrip covers the fetch-a-recording-made-elsewhere
// workflow end to end over httptest: upload a recording, download it by
// digest, and verify the returned file is a valid trace whose content
// digest, record count and replay results match the original exactly.
func TestTraceDownloadRoundTrip(t *testing.T) {
	ts := testServer(t)

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "compress", Budget: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	var up bytes.Buffer
	if _, err := rec.WriteTo(&up); err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", &up)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", presp.StatusCode)
	}

	// Download by digest.
	dresp, err := http.Get(ts.URL + "/v1/traces/" + rec.Digest())
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("download status %d", dresp.StatusCode)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("download content type %q", ct)
	}
	data, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Version() != tracefile.Version4 {
		t.Errorf("download carries container v%d, want v%d", fr.Version(), tracefile.Version4)
	}
	got, err := tlr.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("downloaded file does not validate: %v", err)
	}
	if got.Digest() != rec.Digest() || got.Records() != rec.Records() {
		t.Fatalf("download is %s/%d records, want %s/%d",
			got.Digest(), got.Records(), rec.Digest(), rec.Records())
	}

	// The pulled file replays to the same results as the original
	// recording (the point of fetching it onto another host).
	study := &tlr.StudyConfig{Budget: 8_000, Window: 128}
	orig, err := tlr.Run(context.Background(), tlr.Request{Trace: rec, Study: study})
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := tlr.Run(context.Background(), tlr.Request{Trace: got, Study: study})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Study, pulled.Study) {
		t.Errorf("pulled trace replays differently:\n%+v\n%+v", orig.Study, pulled.Study)
	}

	// Unknown digests are a 404, and the store listing reports both the
	// held (v3) and canonical sizes.
	nresp, err := http.Get(ts.URL + "/v1/traces/sha256:nope")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest download: status %d", nresp.StatusCode)
	}
	lresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []struct {
			Digest         string `json:"digest"`
			Bytes          int    `json:"bytes"`
			CanonicalBytes int    `json:"canonicalBytes"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].CanonicalBytes <= listing.Traces[0].Bytes {
		t.Errorf("listing sizes %+v: canonical should exceed the held v3 bytes", listing.Traces)
	}
}

// TestPprofFlagMounts checks that the profiling endpoints answer when
// mounted (the -pprof flag) and are absent by default.
func TestPprofFlagMounts(t *testing.T) {
	srv := newServer(tlr.BatchOptions{Workers: 1})
	defer srv.batcher.Close()
	mux := srv.mux()
	mountPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", resp.StatusCode)
	}

	plain := testServer(t)
	presp, err := http.Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}

// TestChunkedUploadToDiskTier drives the disk-tier upload path over
// real HTTP: the body is sent with chunked transfer encoding (no
// Content-Length), spools into the -trace-dir store without being
// materialised, and a digest-referenced run replays it identically to
// live execution.  The listing and stats report per-tier occupancy.
func TestChunkedUploadToDiskTier(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(tlr.BatchOptions{Workers: 2, TraceStoreBytes: 4096, TraceDir: dir})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		srv.batcher.Close()
	})

	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "compress", Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	// An io.Pipe body has no declared length, so net/http sends it
	// chunked — the long-recording upload shape.
	pr, pw := io.Pipe()
	go func() {
		_, err := rec.WriteTo(pw)
		pw.CloseWithError(err)
	}()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("chunked upload status %d: %s", resp.StatusCode, body)
	}
	var up struct {
		Digest  string `json:"digest"`
		Records uint64 `json:"records"`
		Tier    string `json:"tier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Digest != rec.Digest() || up.Records != rec.Records() || up.Tier != "disk" {
		t.Fatalf("upload answered %+v, want %s/%d on disk", up, rec.Digest(), rec.Records())
	}

	// The digest-named file exists in the store directory.
	if _, err := os.Stat(filepath.Join(dir, tracefile.DigestFileName(up.Digest))); err != nil {
		t.Fatalf("spooled file missing: %v", err)
	}

	// Digest-referenced replay from the disk tier equals live execution.
	decode := func(resp *http.Response) tlr.Result {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var r tlr.Result
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}
	study := `"study": {"budget": 20000, "window": 256}`
	byTrace := decode(post(t, ts, "/v1/run", `{"trace": {"digest": "`+up.Digest+`"}, `+study+`}`))
	byName := decode(post(t, ts, "/v1/run", `{"workload": "compress", `+study+`}`))
	if !reflect.DeepEqual(byTrace.Study, byName.Study) {
		t.Errorf("disk-tier replay differs from live:\n%+v\n%+v", byTrace.Study, byName.Study)
	}

	// The listing reports the tier split; the stats report the tier
	// counters.
	lresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []struct {
			Digest    string `json:"digest"`
			Tier      string `json:"tier"`
			DiskBytes int64  `json:"diskBytes"`
		} `json:"traces"`
		Tiers struct {
			Disk struct {
				Traces int   `json:"traces"`
				Bytes  int64 `json:"bytes"`
			} `json:"disk"`
		} `json:"tiers"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].Tier != "disk" || listing.Traces[0].DiskBytes == 0 {
		t.Fatalf("listing %+v", listing)
	}
	if listing.Tiers.Disk.Traces != 1 || listing.Tiers.Disk.Bytes == 0 {
		t.Fatalf("tier occupancy %+v", listing.Tiers)
	}
	if st := serviceStats(t, ts.URL); st.TraceDisk != 1 || st.TraceSpills != 1 {
		t.Fatalf("stats %+v", st)
	}

	// The download streams the disk tier's file byte for byte.
	dresp, err := http.Get(ts.URL + "/v1/traces/" + up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	got, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, tracefile.DigestFileName(up.Digest)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("download differs from the stored file")
	}
}

// TestSmallUploadServedFromMemory: on a disk-tier server, a version-4
// upload within the promote bound is listed in both tiers as soon as
// it is stored, its first query replays it from memory without a
// promote, and a repeat of that query is answered from the result
// cache without a trace lookup.
func TestSmallUploadServedFromMemory(t *testing.T) {
	srv := newServer(tlr.BatchOptions{Workers: 1, TraceDir: t.TempDir()})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		srv.batcher.Close()
	})
	rec, err := tlr.Record(context.Background(), tlr.RecordSpec{Workload: "compress", Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := rec.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up struct {
		Digest string `json:"digest"`
		Tier   string `json:"tier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Digest != rec.Digest() || up.Tier != "memory+disk" {
		t.Fatalf("upload answered %+v, want %s in memory+disk", up, rec.Digest())
	}
	run := `{"trace": {"digest": "` + up.Digest + `"}, "study": {"budget": 20000, "window": 256}}`
	for i, wantCached := range []bool{false, true} {
		r := post(t, ts, "/v1/run", run)
		var res tlr.Result
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil || r.StatusCode != http.StatusOK || res.Err != nil {
			t.Fatalf("query %d: status %d, %v / %v", i, r.StatusCode, err, res.Err)
		}
		if res.Cached != wantCached {
			t.Fatalf("query %d: cached %v, want %v", i, res.Cached, wantCached)
		}
		if st := serviceStats(t, ts.URL); st.TracePromotes != 0 || st.TraceHits != 1 {
			t.Fatalf("query %d: %d promotes and %d trace lookups, want 0 and 1", i, st.TracePromotes, st.TraceHits)
		}
	}
}
