package workload

import (
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
)

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("suite has %d workloads, want 14", len(all))
	}
	nInt, nFP := 0, 0
	for _, w := range all {
		if w.Category == Integer {
			nInt++
		} else {
			nFP++
		}
	}
	if nInt != 7 || nFP != 7 {
		t.Errorf("suite split %d INT / %d FP, want 7/7", nInt, nFP)
	}
	// The paper's figure order: FP first.
	if all[0].Category != Float || all[len(all)-1].Category != Integer {
		t.Error("All() must order FP before INT (paper figure order)")
	}
	want := []string{"applu", "apsi", "fpppp", "hydro2d", "su2cor", "tomcatv", "turb3d",
		"compress", "gcc", "go", "ijpeg", "li", "perl", "vortex"}
	got := Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("hydro2d")
	if !ok || w.Name != "hydro2d" || w.Category != Float {
		t.Fatalf("ByName(hydro2d) = %+v, %v", w, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName(nonesuch) should fail")
	}
}

func TestByCategory(t *testing.T) {
	count := map[Category]int{}
	for _, w := range All() {
		count[w.Category]++
	}
	if n := count[Integer]; n != 7 {
		t.Errorf("Integer count %d", n)
	}
	if n := count[Float]; n != 7 {
		t.Errorf("Float count %d", n)
	}
}

func TestAllAssembleAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if len(prog.Insts) == 0 {
				t.Fatal("empty program")
			}
			c := cpu.New(prog)
			n, err := c.Run(50000, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n < 50000 {
				t.Fatalf("halted after %d instructions; workloads must outlast any budget", n)
			}
		})
	}
}

func TestDeterministicSources(t *testing.T) {
	for _, w := range All() {
		if w.Source() != w.Source() {
			t.Errorf("%s: source not deterministic", w.Name)
		}
	}
}

func TestDescriptionsAndProfiles(t *testing.T) {
	for _, w := range All() {
		if w.Description == "" || w.Profile == "" {
			t.Errorf("%s: missing description or profile", w.Name)
		}
		if strings.TrimSpace(w.Source()) == "" {
			t.Errorf("%s: empty source", w.Name)
		}
	}
}

// profile runs a workload under the limit-study engines and returns the
// headline metrics used by the profile tests.
func profile(t *testing.T, name string, budget uint64) (reusability, avgTrace float64) {
	t.Helper()
	w, ok := ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(prog)
	study := core.NewTLRStudy(core.TLRConfig{Variants: []core.Latency{core.ConstLatency(1)}})
	if _, err := c.Run(budget, func(e *trace.Exec) { study.Consume(e) }); err != nil {
		t.Fatal(err)
	}
	study.Finish()
	r := study.Result()
	return r.ReusedFraction(), r.Stats.AvgLen()
}

func TestProfileExtremes(t *testing.T) {
	// The two reusability extremes the paper calls out: hydro2d (~99%,
	// the max) and applu (~53%, the min); and their trace sizes (203 vs
	// ~3).  Exact values are workload-engineering targets, so the bounds
	// are deliberately loose.
	if testing.Short() {
		t.Skip("profile measurement is slow")
	}
	hr, ht := profile(t, "hydro2d", 200000)
	if hr < 0.90 {
		t.Errorf("hydro2d reusability %.3f, want > 0.90", hr)
	}
	if ht < 100 {
		t.Errorf("hydro2d avg trace %.1f, want > 100", ht)
	}
	ar, at := profile(t, "applu", 200000)
	if ar > 0.70 || ar < 0.30 {
		t.Errorf("applu reusability %.3f, want ~0.5", ar)
	}
	if at > 12 {
		t.Errorf("applu avg trace %.1f, want short", at)
	}
	if !(hr > ar && ht > at) {
		t.Error("hydro2d must dominate applu in both reusability and trace size")
	}
}

func TestProfileOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("profile measurement is slow")
	}
	// Integer suite: every benchmark should sit in the high-reusability
	// band the paper shows (Fig. 3: most above 85%).
	for _, name := range []string{"compress", "gcc", "go", "ijpeg", "li", "perl", "vortex"} {
		r, _ := profile(t, name, 150000)
		if r < 0.75 {
			t.Errorf("%s reusability %.3f, expected the paper's high-reusability band", name, r)
		}
	}
}
