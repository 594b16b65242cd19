package rtm

import (
	"io"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// execStream records n instructions of a workload into memory.
func execStream(t *testing.T, name string, n uint64) []trace.Exec {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Exec, 0, n)
	if _, err := cpu.New(prog).Run(n, func(e *trace.Exec) { recs = append(recs, *e) }); err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != n {
		t.Fatalf("%s halted after %d of %d instructions", name, len(recs), n)
	}
	return recs
}

// sliceStream is a trace.Stream over records already in memory, so the
// allocation gates below count the engine's allocations and no decoder's.
type sliceStream struct {
	recs []trace.Exec
	pos  int
}

func (s *sliceStream) NextBatch() ([]trace.Exec, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	end := min(s.pos+4096, len(s.recs))
	b := s.recs[s.pos:end]
	s.pos = end
	return b, nil
}

func (s *sliceStream) Skip(n uint64) (uint64, error) {
	k := min(n, uint64(len(s.recs)-s.pos))
	s.pos += int(k)
	return k, nil
}

func (s *sliceStream) Close() {}

// Steady-state allocation gates for the per-record path of both drive
// modes under every collection heuristic.  After a warm-up that fills the
// 4K-entry RTM, each measured run retires allocGateStep more instructions
// of gcc; the gate is allocations per retired instruction.  Storing a
// trace allocates nothing: evicted and invalidated entries are recycled
// with their Ref buffers, so an Entry is allocated only while the RTM
// fills.  What remains is the per-run Result (its TopTraces profile) and
// the odd recycled buffer grown for a trace with more inputs and outputs.
//
// Measured (allocations per 1000 retired instructions; gcc, 4K entries,
// runs of 20000 instructions after a 60000-instruction warm-up; Sim, with
// Replay one allocation per run lower):
//
//	heuristic   before   after   gate
//	ILR NE          61    0.50      5
//	ILR EXP        113    0.50      5
//	I(4) EXP       497    0.40      5
//
// "before" is the engine that cloned every stored summary: an Entry and
// a Ref array per stored trace.  The counts are deterministic; the gates leave room
// for workload drift only.
const (
	allocGateWarm = 60_000
	allocGateStep = 20_000
	allocGateRuns = 4
)

var allocGates = []struct {
	cfg   Config
	limit float64 // allocations per retired instruction
}{
	{Config{Geometry: Geometry4K, Heuristic: ILRNE}, 0.005},
	{Config{Geometry: Geometry4K, Heuristic: ILREXP}, 0.005},
	{Config{Geometry: Geometry4K, Heuristic: IEXP, N: 4}, 0.005},
}

func TestSimSteadyStateAllocs(t *testing.T) {
	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range allocGates {
		t.Run(g.cfg.Heuristic.String(), func(t *testing.T) {
			sim := NewSim(g.cfg, cpu.New(prog))
			budget := uint64(allocGateWarm)
			if _, err := sim.Run(budget); err != nil {
				t.Fatal(err)
			}
			per := testing.AllocsPerRun(allocGateRuns, func() {
				budget += allocGateStep
				r, err := sim.Run(budget)
				if err != nil || r.Total() != budget {
					t.Fatalf("run to %d: retired %d, err %v", budget, r.Total(), err)
				}
			}) / allocGateStep
			t.Logf("%.5f allocations per retired instruction", per)
			if per > g.limit {
				t.Errorf("%.4f allocations per retired instruction, gate %.3f", per, g.limit)
			}
		})
	}
}

func TestReplaySteadyStateAllocs(t *testing.T) {
	recs := execStream(t, "gcc", allocGateWarm+(allocGateRuns+2)*allocGateStep)
	for _, g := range allocGates {
		t.Run(g.cfg.Heuristic.String(), func(t *testing.T) {
			p := NewReplay(g.cfg, &sliceStream{recs: recs})
			budget := uint64(allocGateWarm)
			if _, err := p.Run(budget); err != nil {
				t.Fatal(err)
			}
			per := testing.AllocsPerRun(allocGateRuns, func() {
				budget += allocGateStep
				r, err := p.Run(budget)
				if err != nil || r.Total() != budget {
					t.Fatalf("run to %d: retired %d, err %v", budget, r.Total(), err)
				}
			}) / allocGateStep
			t.Logf("%.5f allocations per retired instruction", per)
			if per > g.limit {
				t.Errorf("%.4f allocations per retired instruction, gate %.3f", per, g.limit)
			}
		})
	}
}
