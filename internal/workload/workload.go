// Package workload provides the benchmark suite of the reproduction: 14
// programs named after the paper's SPEC95 subset (7 integer, 7 floating
// point), each implementing the algorithm its namesake is known for, with
// input data engineered to reproduce the *value-repetition profile* the
// paper reports per benchmark (DESIGN.md §2).
//
// Every program is written in the simulator's assembly language and runs
// an effectively unbounded outer loop; the experiment harness cuts it at
// its instruction budget, mirroring the paper's 50M-instruction windows.
//
// The levers that tune each profile are:
//
//   - repetition: outer passes re-execute identical work, making
//     instruction instances reusable from the second pass on;
//   - freshness: instructions fed by a never-repeating value chain (an
//     LCG threaded through the run) are never reusable; their spacing
//     sets the average trace length, their fraction caps reusability;
//   - latency placement: reusable long-latency chains (mul/fdiv/fsqrt)
//     on the critical path reward instruction-level reuse; reusable
//     *chains* of short ops reward trace-level reuse; a fresh critical
//     path rewards neither (perl's profile).
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/tracereuse/tlr/internal/asm"
	"github.com/tracereuse/tlr/internal/isa"
)

// Category tells whether a workload models an integer or FP benchmark.
type Category int

// Categories.
const (
	Integer Category = iota
	Float
)

// String returns "INT" or "FP".
func (c Category) String() string {
	if c == Integer {
		return "INT"
	}
	return "FP"
}

// Workload is one benchmark program.
type Workload struct {
	Name        string
	Category    Category
	Description string
	// Profile documents the reuse profile the workload is engineered to
	// show, with the paper's numbers it stands in for.
	Profile string

	source func() string

	once sync.Once
	prog *isa.Program
	err  error
}

// Source returns the assembly text.
func (w *Workload) Source() string { return w.source() }

// Program assembles the workload once and caches the result.  The program
// is immutable during execution, so concurrent CPUs may share it.
func (w *Workload) Program() (*isa.Program, error) {
	w.once.Do(func() {
		w.prog, w.err = asm.AssembleNamed(w.Name, w.source())
	})
	return w.prog, w.err
}

var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns the full suite in the paper's figure order: FP benchmarks
// first, then integer, each group alphabetical.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category == Float
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName finds a workload.
func ByName(name string) (*Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Names lists all workload names in figure order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}

// lcg is the deterministic generator used to embed data; fixed seeds keep
// every build byte-identical.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 11
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

func (l *lcg) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(l.next()%(1<<20))/float64(1<<20)
}

// wordData renders a .data line sequence for an int array.
func wordData(b *strings.Builder, label string, vals []int64) {
	fmt.Fprintf(b, "%s:\n", label)
	for i := 0; i < len(vals); i += 8 {
		end := min(i+8, len(vals))
		b.WriteString("        .word ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
}

// doubleData renders a .data line sequence for a float array.
func doubleData(b *strings.Builder, label string, vals []float64) {
	fmt.Fprintf(b, "%s:\n", label)
	for i := 0; i < len(vals); i += 4 {
		end := min(i+4, len(vals))
		b.WriteString("        .double ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%g", vals[j])
		}
		b.WriteByte('\n')
	}
}
