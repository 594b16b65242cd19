package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/tracereuse/tlr"
)

// The foreign-trace workflow over HTTP: POST /v1/ingest converts a CSV
// address trace into the store, POST /v1/analyze histograms it by
// digest, and /v1/stats accounts for both.

func ingestBody(rows int) string {
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		op := "r"
		if i%4 == 3 {
			op = "w"
		}
		fmt.Fprintf(&sb, "0x%x,%s\n", 0x1000+(i%32)*8, op)
	}
	return sb.String()
}

func TestIngestAnalyzeAndStats(t *testing.T) {
	ts := testServer(t)
	const rows = 1200

	resp := post(t, ts, "/v1/ingest?format=csv&addr-col=0&op-col=1", ingestBody(rows))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var up struct {
		Digest   string `json:"digest"`
		Records  uint64 `json:"records"`
		Lines    uint64 `json:"lines"`
		Rejected uint64 `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Records != rows || up.Rejected != 0 || !strings.HasPrefix(up.Digest, "sha256:") {
		t.Fatalf("ingest response: %+v", up)
	}

	// Analyze by digest with the config implied; run it twice so the
	// second answer comes from cache.
	body := fmt.Sprintf(`{"trace": {"digest": %q}}`, up.Digest)
	var first tlr.Result
	for i := 0; i < 2; i++ {
		resp := post(t, ts, "/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze status %d", resp.StatusCode)
		}
		var res tlr.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || res.Kind != tlr.KindAnalyze || res.Analyze == nil {
			t.Fatalf("analyze result: %+v", res)
		}
		if res.Analyze.Records != rows || res.Analyze.Mem.Distinct != 32 {
			t.Fatalf("histogram: %+v", *res.Analyze)
		}
		if i == 0 {
			first = res
		} else if !res.Cached || *res.Analyze != *first.Analyze {
			t.Fatalf("second analyze not cached: %+v", res)
		}
	}

	// A non-analyze body on /v1/analyze is a 400.
	resp = post(t, ts, "/v1/analyze", `{"workload": "li", "study": {"budget": 100}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-analyze kind accepted: status %d", resp.StatusCode)
	}

	// /v1/stats carries the ingest and analyze accounting.
	a := serviceStats(t, ts.URL)
	if a.AnalyzeRuns != 1 || a.AnalyzeHits != 1 {
		t.Errorf("analyze counters: %+v", a)
	}
	if a.IngestedTraces != 1 || a.IngestedRecords != rows || a.IngestRejects != 0 {
		t.Errorf("ingest counters: %+v", a)
	}
}

func TestIngestFormatsAndErrors(t *testing.T) {
	ts := testServer(t)

	// PC-op text format.
	pcBody := "0x100 ld 0x2000 -> r1\n0x101 add r1 r1 -> r2\n0x102 st r2 -> 0x2000\n"
	resp := post(t, ts, "/v1/ingest?format=pc", pcBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pc ingest status %d", resp.StatusCode)
	}

	// Gzip body, lenient mode counting a malformed row.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("0x10,r\nbogus,r\n0x20,w\n"))
	zw.Close()
	hresp, err := http.Post(ts.URL+"/v1/ingest?format=csv&op-col=1&lenient=1", "text/csv", &gz)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var up struct {
		Records  uint64 `json:"records"`
		Rejected uint64 `json:"rejected"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Records != 2 || up.Rejected != 1 {
		t.Fatalf("lenient gzip ingest: %+v", up)
	}

	// Errors: malformed line in strict mode carries its line number;
	// unknown formats and bad layout parameters are 400s.
	resp = post(t, ts, "/v1/ingest?format=csv&op-col=1", "0x10,r\nbogus,r\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("strict malformed ingest: status %d", resp.StatusCode)
	}
	for _, path := range []string{
		"/v1/ingest?format=elf",
		"/v1/ingest?format=csv&addr-col=x",
		"/v1/ingest?format=csv&comma=%3B%3B",
	} {
		if resp := post(t, ts, path, "0x10\n"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
