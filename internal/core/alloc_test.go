package core

import (
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// Steady-state allocation gates for the limit-study engines.  Each
// measured run consumes allocGateStep more instructions of gcc after a
// warm-up; the gate is allocations per consumed instruction.  A run may
// still allocate when the history table's slot array or signature arena
// doubles, or a TLR run is longer than any before it; nothing else on
// the per-record path allocates.
//
// Measured (allocations per 1000 instructions; gcc, window 256, runs of
// 20000 instructions after a 60000-instruction warm-up):
//
//	engine      before   after   gate
//	TLRStudy       475       0      5
//	ILRStudy        64       0      5
//	VPStudy          0       0      5
//
// "before" is the engine that summarised every reusable run with a fresh
// Summarizer, kept register ready-times in a map, and allocated a string
// per new history vector.  VPStudy's last-value table was a Go map that
// allocated a slice per new PC; gcc meets no new PC after the warm-up, so
// its gate guards the flat table against per-record allocation.
const (
	allocGateWarm = 60_000
	allocGateStep = 20_000
	allocGateRuns = 4
)

func TestStudySteadyStateAllocs(t *testing.T) {
	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	const n = allocGateWarm + (allocGateRuns+1)*allocGateStep
	recs := make([]trace.Exec, 0, n)
	if _, err := cpu.New(prog).Run(n, func(e *trace.Exec) { recs = append(recs, *e) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("gcc halted after %d of %d instructions", len(recs), n)
	}
	for _, g := range []struct {
		name    string
		consume func(*trace.Exec)
		limit   float64 // allocations per consumed instruction
	}{
		{"TLRStudy", NewTLRStudy(TLRConfig{Window: 256, Variants: []Latency{ConstLatency(1)}}).Consume, 0.005},
		{"ILRStudy", NewILRStudy(ILRConfig{Window: 256, Latencies: []float64{1}}).Consume, 0.005},
		{"VPStudy", NewVPStudy(VPConfig{Window: 256}).Consume, 0.005},
	} {
		t.Run(g.name, func(t *testing.T) {
			pos := 0
			feed := func(k int) {
				for end := pos + k; pos < end; pos++ {
					g.consume(&recs[pos])
				}
			}
			feed(allocGateWarm)
			per := testing.AllocsPerRun(allocGateRuns, func() { feed(allocGateStep) }) / allocGateStep
			t.Logf("%.4f allocations per instruction", per)
			if per > g.limit {
				t.Errorf("%.4f allocations per instruction, gate %.3f", per, g.limit)
			}
		})
	}
}
