package rtm

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// recordStream records n instructions of a workload (after skip) into an
// in-memory trace.
func recordStream(t *testing.T, name string, skip, n uint64) *tracefile.Trace {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(prog)
	if skip > 0 {
		if _, err := c.Run(skip, nil); err != nil {
			t.Fatal(err)
		}
	}
	rec := tracefile.NewRecorder()
	if _, err := c.Run(n, rec.Write); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// TestReplayMatchesLiveSim: an RTM simulation replayed from a recorded
// stream must be result-identical to the live simulation of the same
// program — every heuristic, both reuse-test modes, across geometries.
// The live side runs with Verify, so the replay is transitively checked
// against real re-execution as well.
func TestReplayMatchesLiveSim(t *testing.T) {
	const skip, budget = 1_000, 30_000
	configs := []Config{
		{Geometry: Geometry512, Heuristic: ILRNE},
		{Geometry: Geometry4K, Heuristic: ILREXP},
		{Geometry: Geometry4K, Heuristic: IEXP, N: 4},
		{Geometry: Geometry32K, Heuristic: IEXP, N: 8, MinLen: 2},
		{Geometry: Geometry4K, Heuristic: ILREXP, InvalidateOnWrite: true},
		{Geometry: Geometry512, Heuristic: IEXP, N: 2, InvalidateOnWrite: true},
	}
	for _, wname := range []string{"compress", "li", "hydro2d"} {
		// The stream must cover skip+budget records; reuse overshoot
		// past the budget never reads the stream (see Replay), so no
		// extra margin is needed.
		tr := recordStream(t, wname, 0, skip+budget)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%v/%v/inval=%v", wname, cfg.Heuristic, cfg.Geometry, cfg.InvalidateOnWrite), func(t *testing.T) {
				w, _ := workload.ByName(wname)
				prog, err := w.Program()
				if err != nil {
					t.Fatal(err)
				}
				c := cpu.New(prog)
				if _, err := c.Run(skip, nil); err != nil {
					t.Fatal(err)
				}
				liveCfg := cfg
				liveCfg.Verify = true
				live, err := NewSim(liveCfg, c).Run(budget)
				if err != nil {
					t.Fatal(err)
				}

				cur := tr.Cursor()
				if _, err := cur.Skip(skip); err != nil {
					t.Fatal(err)
				}
				replay, err := NewReplay(cfg, cur).Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(live, replay) {
					t.Errorf("replay diverged from live simulation:\nlive   %+v\nreplay %+v", live, replay)
				}
			})
		}
	}
}

// TestReplayBudgetBoundary: a stream holding exactly skip+budget records
// is sufficient even when the final reuse hit overshoots the budget —
// the hit's effect comes from the entry, not the stream.
func TestReplayBudgetBoundary(t *testing.T) {
	const budget = 20_000
	tr := recordStream(t, "compress", 0, budget)
	cfg := Config{Geometry: Geometry4K, Heuristic: IEXP, N: 8}

	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewSim(cfg, cpu.New(prog)).Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplay(cfg, tr.Cursor()).Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Errorf("boundary replay diverged:\nlive   %+v\nreplay %+v", live, replay)
	}
	if live.Total() < budget {
		t.Fatalf("live run retired %d < budget %d (test needs a full run)", live.Total(), budget)
	}
}

// TestReplayFeedAnyBatching: Feed must give the result RunContext gives
// however the records are cut into batches, down to batches shorter
// than the reused traces whose hops cross them.
func TestReplayFeedAnyBatching(t *testing.T) {
	const budget = 20_000
	tr := recordStream(t, "li", 0, budget+1_000)
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []Config{
		{Geometry: Geometry4K, Heuristic: ILREXP},
		{Geometry: Geometry512, Heuristic: IEXP, N: 8},
	} {
		want, err := NewReplay(cfg, tr.Cursor()).Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		p := NewReplay(cfg, nil)
		cur := tr.Cursor()
		var pending []trace.Exec
		for {
			if len(pending) == 0 {
				b, err := cur.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				pending = b
			}
			k := min(1+rng.Intn(9), len(pending))
			p.Feed(pending[:k], budget)
			pending = pending[k:]
		}
		if got := p.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: fed in short batches:\n got %+v\nwant %+v", cfg.Heuristic, got, want)
		}
	}
}

// TestReplayCancellation: a cancelled replay stops with the context's
// error and partial counters.
func TestReplayCancellation(t *testing.T) {
	tr := recordStream(t, "li", 0, 10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewReplay(Config{Geometry: Geometry512, Heuristic: ILRNE}, tr.Cursor()).RunContext(ctx, 10_000)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayRejectsVerify: Verify needs live execution.
func TestReplayRejectsVerify(t *testing.T) {
	tr := recordStream(t, "li", 0, 100)
	cfg := Config{Geometry: Geometry512, Heuristic: ILRNE, Verify: true}
	if _, err := NewReplay(cfg, tr.Cursor()).Run(100); err == nil {
		t.Fatal("Verify under replay must error")
	}
}
