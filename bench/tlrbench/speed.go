package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The machine a run lands on may be shared, and its speed can drift by
// tens of percent over minutes as other tenants come and go: more than
// the differences the benchmark exists to find.  So every run also times
// a fixed kernel several times while it runs, and reports its timings at
// a reference speed: each time is divided, and each rate multiplied, by
// the run's median kernel time over refKernel.  A change that slows the
// program still shows in full, while a neighbour slowing the whole
// machine during a run largely cancels.
//
// The kernel does what the workloads do most — hash-table lookups and
// inserts, like the engines' history tables, and a switch-dispatched
// interpreter loop, like the simulator — in code of its own, so no
// change to the program can move it.  Over twenty minutes of a noisy
// two-vCPU machine its time tracked the batch workloads' wall time with
// correlation 0.95 and a slope near 1, where SHA-256 and a random walk
// over memory, the first kernel tried, moved only half as much as the
// workloads did.

// refKernel is the kernel's time at the reference speed: its median on
// the two-vCPU machine the baseline was measured on.
const refKernel = 65 * time.Millisecond

// speedometer collects kernel timings over a run.
type speedometer struct {
	mu      sync.Mutex
	samples []float64 // kernel time over refKernel
}

// kernelFactor times the kernel once and returns how much slower than
// the reference speed it ran.  It collects garbage before and after, so
// that neither the kernel nor the work that follows it pays for the
// other's allocations.  Set-ups scale by it directly.
func kernelFactor() float64 {
	runtime.GC()
	d := runKernel()
	runtime.GC()
	return float64(d) / float64(refKernel)
}

// measure times the kernel once during the timed phase and records it.
func (s *speedometer) measure() float64 {
	f := kernelFactor()
	s.mu.Lock()
	s.samples = append(s.samples, f)
	s.mu.Unlock()
	return f
}

// factor is how much slower than the reference speed the machine ran
// during the timed phase: the median of its kernel timings (1 before
// any measurement).  Set-up runs earlier, often at another speed, so its
// timings do not count here.
func (s *speedometer) factor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	return median(s.samples)
}

// speedExponent is how a metric of the unit scales with machine speed:
// 1 for times, -1 for rates, 0 for sizes, counts and ratios.
func speedExponent(unit string) int {
	switch unit {
	case "s", "ms", "us", "ns", "ms/MiB":
		return 1
	case "1/s", "Minst/s":
		return -1
	}
	return 0
}

// kernelChunks is how many pieces each half of the kernel is cut into.
// Two goroutines take pieces until none are left, as the workloads'
// workers take jobs, so the kernel slows with the processor time the
// process gets, not with its unluckiest thread.
const kernelChunks = 64

var kernelSink atomic.Uint64

// kernelProgram is the interpreter's bytecode.
var kernelProgram = []byte{0, 1, 2, 3, 4, 1, 5, 2, 0, 3, 6, 4, 7, 1, 2, 5}

// runKernel runs the calibration kernel once and returns its wall time.
func runKernel() time.Duration {
	start := time.Now()
	shared(kernelChunks, func() {
		m := make(map[uint64]uint32, 1<<14)
		x := uint64(88172645463325252)
		var s uint32
		for range 1 << 15 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x & (1<<15 - 1)
			if v, ok := m[k]; ok {
				s += v
			} else {
				m[k] = uint32(x)
			}
		}
		kernelSink.Add(uint64(s))
	})
	shared(kernelChunks, func() {
		var reg [8]uint64
		mem := make([]uint64, 1<<14)
		reg[1] = 12345
		for i := range 1 << 12 {
			for _, op := range kernelProgram {
				a := reg[op&7]
				switch (a ^ uint64(op) ^ uint64(i)) & 7 {
				case 0:
					reg[1] += a * 3
				case 1:
					reg[2] ^= a >> 3
				case 2:
					mem[a&(1<<14-1)] = reg[3]
				case 3:
					reg[3] = mem[reg[2]&(1<<14-1)] + 1
				case 4:
					reg[4] = reg[1] - reg[5]
				case 5:
					reg[5] = a | 1
				case 6:
					reg[6] = reg[6]*31 + a
				default:
					reg[7] = a % (reg[5] | 1)
				}
			}
		}
		kernelSink.Add(reg[1] + reg[6] + reg[7])
	})
	return time.Since(start)
}

// shared runs piece n times, spread over two goroutines.
func shared(n int, piece func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				piece()
			}
		}()
	}
	wg.Wait()
}
