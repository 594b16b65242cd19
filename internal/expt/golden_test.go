package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.jsonl from the current engines")

// goldenCfg is the reduced configuration the figure golden is pinned at:
// every limit study of Figures 3-8 and the ablations, and the full
// 560-cell Figure-9 grid, at budgets that fit the test suite.
var goldenCfg = Config{Budget: 40_000, Skip: 500, Window: 256, RTMBudget: 12_000}

const goldenFile = "figures.golden.jsonl"

// goldenLines renders the engines' results at goldenCfg as JSON lines:
// one per workload's limit-study Measurement, then one per Figure-9 cell
// (its rtm.Result with the Top profile) in heuristic x geometry x
// workload order.
func goldenLines(t *testing.T) []string {
	svc := service.New(service.Options{})
	defer svc.Close()
	ms, err := MeasureWith(svc, goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := measureRTMGrid(svc, goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	for _, m := range ms {
		add(m)
	}
	k := 0
	for _, h := range RTMHeuristics() {
		for _, g := range RTMGeometries() {
			for _, w := range workload.All() {
				add(struct {
					Workload  string
					Heuristic string
					Geometry  rtm.Geometry
					Result    rtm.Result
				}{w.Name, h.Label, g, grid[k]})
				k++
			}
		}
	}
	return lines
}

// TestFigureGolden pins every figure value: the limit-study measurements
// and the per-cell Figure-9 results must match the committed golden byte
// for byte, so an engine change that shifts any number, however slightly,
// fails here with the first field that differs.  Regenerate (only for an
// intended change of results) with
//
//	go test ./internal/expt -run TestFigureGolden -update
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole reduced evaluation")
	}
	checkGolden(t, goldenFile, goldenLines(t))
}

// firstDiff names the first field, in sorted key order, where two JSON
// documents differ, with both values.
func firstDiff(got, want string) string {
	var g, w any
	if json.Unmarshal([]byte(got), &g) != nil || json.Unmarshal([]byte(want), &w) != nil {
		return fmt.Sprintf("got %s, want %s", got, want)
	}
	path, gv, wv := diffJSON("", g, w)
	return fmt.Sprintf("%s: got %s, want %s", path, gv, wv)
}

func diffJSON(path string, g, w any) (string, string, string) {
	switch wt := w.(type) {
	case map[string]any:
		if gt, ok := g.(map[string]any); ok {
			keys := make([]string, 0, len(wt))
			for k := range wt {
				keys = append(keys, k)
			}
			for k := range gt {
				if _, ok := wt[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if !reflect.DeepEqual(gt[k], wt[k]) {
					return diffJSON(path+"."+k, gt[k], wt[k])
				}
			}
		}
	case []any:
		if gt, ok := g.([]any); ok && len(gt) == len(wt) {
			for i := range wt {
				if !reflect.DeepEqual(gt[i], wt[i]) {
					return diffJSON(fmt.Sprintf("%s[%d]", path, i), gt[i], wt[i])
				}
			}
		}
	}
	return path, compact(g), compact(w)
}

func compact(v any) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return fmt.Sprint(v)
	}
	return strings.TrimSpace(buf.String())
}

const ilpGoldenFile = "ilp.golden.jsonl"

// ilpGoldenLines renders the ILP-limits rows at goldenCfg as JSON lines,
// one per workload, then one strict, capped study carrying three ILP
// windows over gcc's live stream.
func ilpGoldenLines(t *testing.T) []string {
	svc := service.New(service.Options{})
	defer svc.Close()
	rows, err := MeasureILPWith(svc, goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	strict, err := svc.Submit(context.Background(), []service.Job{service.StudyJob("strict16",
		service.ProgSource("workload:gcc", prog), service.StudyParams{
			Budget: goldenCfg.Budget, Skip: goldenCfg.Skip, Window: goldenCfg.Window,
			Strict: true, MaxRunLen: 16, ILPWindows: []int{16, 256, 0},
		})}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, v := range []any{rows, strict[0].Value} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	return lines
}

// TestILPGolden pins the ILP-limits rows and a strict, capped study with
// ILP windows byte for byte, as TestFigureGolden pins the figures.
// Regenerate (only for an intended change of results) with
//
//	go test ./internal/expt -run TestILPGolden -update
func TestILPGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ILP window sweep")
	}
	checkGolden(t, ilpGoldenFile, ilpGoldenLines(t))
}

// checkGolden compares got, line by line, with testdata/name, naming the
// first field of the first line that differs; with -update it rewrites
// the file instead.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%d golden lines, engines produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d differs: %s", name, i+1, firstDiff(got[i], want[i]))
		}
	}
}

const ablationGoldenFile = "ablation.golden.jsonl"

// ablationGoldenLines renders, at goldenCfg, the two ablations that run
// simulations of their own — the valid-bit reuse test (MeasureInvalidation)
// and the execution-driven pipeline (MeasurePipeline) — one JSON line per
// workload each.  The other ablation tables derive from the Measurements
// TestFigureGolden pins.
func ablationGoldenLines(t *testing.T) []string {
	inv, err := MeasureInvalidation(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := MeasurePipeline(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	for _, c := range inv {
		add(c)
	}
	for _, r := range pipe {
		add(r)
	}
	return lines
}

// TestAblationGolden pins the valid-bit and pipeline ablations byte for
// byte, as TestFigureGolden pins the figures.  Regenerate (only for an
// intended change of results) with
//
//	go test ./internal/expt -run TestAblationGolden -update
func TestAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the valid-bit and pipeline ablations")
	}
	checkGolden(t, ablationGoldenFile, ablationGoldenLines(t))
}
