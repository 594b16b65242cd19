package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

func runVP(cfg VPConfig, stream []trace.Exec) VPResult {
	s := NewVPStudy(cfg)
	for i := range stream {
		s.Consume(&stream[i])
	}
	s.Finish()
	return s.Result()
}

func TestVPPredictsRepeatedOutputs(t *testing.T) {
	// 5 iterations of an 8-chain with identical values: iterations 2..5
	// predicted (outputs repeat exactly).
	r := runVP(VPConfig{}, repeatChain(5, 8, 2))
	if r.Instructions != 40 {
		t.Fatalf("Instructions = %d", r.Instructions)
	}
	if r.Predicted != 32 {
		t.Errorf("Predicted = %d, want 32", r.Predicted)
	}
	if r.PredictedFraction() != 0.8 {
		t.Errorf("PredictedFraction = %v", r.PredictedFraction())
	}
}

// serializedChain builds iterations of an n-instruction chain that are
// dataflow-serial across iterations through a carry register that takes
// the same value every time.
func serializedChain(iters, n int, lat uint8) []trace.Exec {
	var out []trace.Exec
	for it := 0; it < iters; it++ {
		for i := 0; i <= n; i++ {
			var e trace.Exec
			e.PC = uint64(i)
			e.Next = uint64(i + 1)
			e.Op = isa.MUL
			e.Lat = lat
			switch i {
			case 0:
				e.AddIn(trace.IntReg(30), 99) // carry in
			case n:
				e.Op = isa.ADD
				e.Lat = 1
				e.AddIn(trace.IntReg(uint8(n)), uint64(n))
				e.AddOut(trace.IntReg(30), 99) // carry out, same value
				out = append(out, e)
				continue
			default:
				e.AddIn(trace.IntReg(uint8(i)), uint64(i))
			}
			e.AddOut(trace.IntReg(uint8(i+1)), uint64(i+1))
			out = append(out, e)
		}
	}
	return out
}

func TestVPBreaksDependenceChains(t *testing.T) {
	// Value prediction's defining power: a correctly predicted chain
	// executes in parallel because consumers use predicted values, even
	// when the chain is serial across iterations.
	stream := serializedChain(10, 20, 3)
	r := runVP(VPConfig{}, stream)
	if r.Speedup <= 2 {
		t.Errorf("VP speedup = %v, want substantial on a predictable serial chain", r.Speedup)
	}
}

func TestVPChangingValuesNotPredicted(t *testing.T) {
	// A counter's outputs never repeat: zero predictions.
	var stream []trace.Exec
	for i := 0; i < 50; i++ {
		var e trace.Exec
		e.PC = 1
		e.Op = isa.ADD
		e.Lat = 1
		e.AddIn(trace.IntReg(1), uint64(i))
		e.AddOut(trace.IntReg(1), uint64(i+1))
		stream = append(stream, e)
	}
	r := runVP(VPConfig{}, stream)
	if r.Predicted != 0 {
		t.Errorf("Predicted = %d, want 0 for a counter", r.Predicted)
	}
	if r.Speedup != 1 {
		t.Errorf("Speedup = %v, want 1", r.Speedup)
	}
}

func TestVPAlternatingValuesNotPredictedByLastValue(t *testing.T) {
	// A last-value predictor cannot catch period-2 alternation.
	var stream []trace.Exec
	for i := 0; i < 40; i++ {
		var e trace.Exec
		e.PC = 1
		e.Op = isa.ADD
		e.Lat = 1
		e.AddOut(trace.IntReg(1), uint64(i%2))
		stream = append(stream, e)
	}
	r := runVP(VPConfig{}, stream)
	if r.Predicted != 0 {
		t.Errorf("Predicted = %d, want 0 for alternation", r.Predicted)
	}
}

func TestVPSideEffectsNeverPredicted(t *testing.T) {
	var stream []trace.Exec
	for i := 0; i < 10; i++ {
		var e trace.Exec
		e.PC = 1
		e.Op = isa.OUT
		e.Lat = 1
		e.SideEffect = true
		e.AddIn(trace.IntReg(1), 5)
		stream = append(stream, e)
	}
	r := runVP(VPConfig{}, stream)
	if r.Predicted != 0 {
		t.Error("side-effecting instructions must never be predicted")
	}
}

func TestVPVersusReuseContrast(t *testing.T) {
	// The Sodani & Sohi contrast the paper cites: on a predictable,
	// reusable serialised chain, VP and TLR both break the dependence
	// chain while ILR stays serial (each reuse must wait for its inputs).
	stream := serializedChain(10, 20, 3)
	vp := runVP(VPConfig{}, stream)
	ilr := runILR(ILRConfig{Latencies: []float64{1}}, stream)
	tlrRes := runTLR(TLRConfig{Variants: []Latency{ConstLatency(1)}}, stream)
	if !(vp.Speedup > ilr.Speedups[0]) {
		t.Errorf("VP %v should beat ILR %v on a predictable serial chain", vp.Speedup, ilr.Speedups[0])
	}
	if !(tlrRes.Speedups[0] > ilr.Speedups[0]) {
		t.Errorf("TLR %v should beat ILR %v on a predictable serial chain", tlrRes.Speedups[0], ilr.Speedups[0])
	}
}

func TestVPWindowBound(t *testing.T) {
	// Predictions become available at window entry, so a finite window
	// still throttles a fully predicted stream.
	stream := repeatChain(50, 4, 1)
	inf := runVP(VPConfig{}, stream)
	fin := runVP(VPConfig{Window: 8}, stream)
	if fin.Cycles < inf.Cycles {
		t.Errorf("finite window cycles %v below infinite %v", fin.Cycles, inf.Cycles)
	}
}

func TestVPPredLatDefault(t *testing.T) {
	s := NewVPStudy(VPConfig{})
	if s.cfg.PredLat != 1 {
		t.Errorf("default PredLat = %v, want 1", s.cfg.PredLat)
	}
}

// TestLastOutputsMatchesMap checks the last-value table against a map
// over PCs that are dense, zero, and strided like foreign addresses,
// enough of them to grow the table several times.
func TestLastOutputsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tab lastOutputs
	model := map[uint64][]trace.Ref{}
	for i := 0; i < 100000; i++ {
		pc := uint64(rng.Intn(3000))
		if rng.Intn(2) == 0 {
			pc *= 4096 // all in one home slot until the table is large
		}
		outs := make([]trace.Ref, rng.Intn(3))
		for j := range outs {
			outs[j] = trace.Ref{Loc: trace.IntReg(uint8(j)), Val: uint64(rng.Intn(2))}
		}
		prev, seen := model[pc]
		want := seen && slices.Equal(prev, outs)
		if got := tab.swap(pc, outs); got != want {
			t.Fatalf("swap %d (pc %d, outs %v): %v, map %v (previous %v)", i, pc, outs, got, want, prev)
		}
		model[pc] = outs
	}
	if tab.n != len(model) {
		t.Fatalf("table holds %d PCs, map %d", tab.n, len(model))
	}
}
