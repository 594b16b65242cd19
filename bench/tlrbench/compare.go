package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is how many parent/change run pairs a verdict needs.
const minPairs = 10

// verdict is compare's judgement of one workload × metric.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies the benchmark's rule to paired runs of a parent (a) and
// a change (b), pair i being a[i] and b[i].
//
//   - When either side's spread (quartile distance over median) exceeds
//     the bound, the metric is unresolved, unless every run of the change
//     reads better than every run of the parent.
//   - A gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither) and the medians to differ by more than
//     the parent's quartile distance.
//   - Worse means the change's median is worse than the parent's by more
//     than the bound.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	if relIQR(a) > bound || relIQR(b) > bound {
		worstB, bestA := b[0], a[0]
		for i := range n {
			if better(worstB, b[i]) {
				worstB = b[i]
			}
			if better(a[i], bestA) {
				bestA = a[i]
			}
		}
		if better(worstB, bestA) {
			return improved
		}
		return unresolved
	}
	wins := 0
	for i := range n {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if 10*wins >= 9*n && better(mb, ma) && math.Abs(mb-ma) > q3a-q1a {
		return improved
	}
	if better(ma, mb) && math.Abs(mb-ma) > bound*math.Abs(ma) {
		return worse
	}
	return unchanged
}

// compareMain is "tlrbench compare PARENT.json CHANGE.json": one row per
// workload × end-to-end metric with each side's median and quartiles,
// the change's pair wins and the verdict, then each side's share of
// failed operations.  It exits 1 when any metric is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlrbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: tlrbench compare [-benchmark BENCHMARK.json] PARENT.json CHANGE.json")
		return 2
	}
	var def benchmarkFile
	var parent, change runFile
	for _, f := range []struct {
		path string
		v    any
	}{{*benchPath, &def}, {fs.Arg(0), &parent}, {fs.Arg(1), &change}} {
		b, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(b, f.v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tlrbench compare: %s: %v\n", f.path, err)
			return 2
		}
	}
	changed := make(map[string]workloadRuns)
	for _, w := range change.Workloads {
		changed[w.Name] = w
	}
	status := 0
	fmt.Fprintf(stdout, "%-12s %-18s %-30s %-30s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, pw := range parent.Workloads {
		cw, ok := changed[pw.Name]
		if !ok {
			fmt.Fprintf(stderr, "tlrbench compare: %s: no runs in %s\n", pw.Name, fs.Arg(1))
			return 2
		}
		n := min(len(pw.Runs), len(cw.Runs))
		if n < minPairs {
			fmt.Fprintf(stderr, "tlrbench compare: %s: %d run pairs; a verdict needs at least %d\n", pw.Name, n, minPairs)
			return 2
		}
		for _, m := range def.EndToEnd {
			a, b := values(pw.Runs[:n], m.Name), values(cw.Runs[:n], m.Name)
			if len(a) != n || len(b) != n {
				fmt.Fprintf(stderr, "tlrbench compare: %s: %s missing from some runs\n", pw.Name, m.Name)
				return 2
			}
			higher := m.Better == "higher"
			v := judge(a, b, higher, m.Bound)
			if v == worse {
				status = 1
			}
			wins := 0
			for i := range n {
				if (higher && b[i] > a[i]) || (!higher && b[i] < a[i]) {
					wins++
				}
			}
			fmt.Fprintf(stdout, "%-12s %-18s %-30s %-30s %-6s %s\n", pw.Name, m.Name,
				quartileText(a), quartileText(b), fmt.Sprintf("%d/%d", wins, n), v)
		}
		fmt.Fprintf(stdout, "%-12s failed operations: parent %s, change %s\n", pw.Name, failedShare(pw.Runs[:n]), failedShare(cw.Runs[:n]))
	}
	return status
}

func values(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func quartileText(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func failedShare(runs []result) string {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return fmt.Sprintf("%d/%d (%.3f%%)", failed, attempted, 100*float64(failed)/float64(max(attempted, 1)))
}
