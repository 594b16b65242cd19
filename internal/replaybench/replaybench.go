// Package replaybench defines the record/replay benchmarks shared by
// BenchmarkReplayVsExecute and cmd/tlrexp -bench-out (BENCH_ci.json),
// so the CI-gated numbers and the benchmark measure the same workload.
//
// Two grids drive the trace-driven request kinds over one recording:
//
//   - The deep grid follows the paper's methodology of skipping far into
//     the program (it skipped the first 25M instructions) before
//     measuring a 100k-instruction window.  Execution pays the full
//     skip+budget simulation per cell; replay seeks the recording past
//     the skip in O(1) and decodes only the measured window — that is
//     where record-once/analyse-many wins big (CI gates >= 2x).
//
//   - The shallow grid measures the same window at a 2000-instruction
//     skip, where there is no warm-up to amortise and the grid ratio is
//     dominated by per-cell analysis cost paid identically by both
//     sides.  Replay can therefore only approach parity here — the v2
//     encoding lost this comparison because decoding a record cost ~3x
//     a simulator step; the v3 delta encoding reached parity, and the
//     v4 plane-split decode wins it outright — and CI gates that the
//     win holds (> 1x).
//
// MeasureEncoding isolates the format-level quantities the grids blur
// together (bytes per record in each encoding, decode versus simulate
// cost per record) across a representative workload mix; CI gates the
// v4-vs-canonical decode speedup, the decode-vs-step ratio and the
// at-rest compression ratio from those.
package replaybench

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// The grids' stream bounds and subject workload.
const (
	Workload = "gcc"
	Skip     = 6_000_000
	Budget   = 100_000

	// ShallowSkip is the shallow grid's warm-up: deliberately tiny, so
	// replay gets essentially no seek advantage and the comparison is
	// decode versus execute.
	ShallowSkip = 2_000
)

// RecordSpec is the one recording every replay cell shares: the stream
// from instruction 0, covering both grids' windows.
func RecordSpec() tlr.RecordSpec {
	return tlr.RecordSpec{Workload: Workload, Budget: Skip + Budget}
}

// Grid returns the deep-skip benchmark requests: trace-backed when src
// is non-nil, program-backed otherwise.
func Grid(src tlr.TraceSource) []tlr.Request { return GridAt(src, Skip) }

// ShallowGrid returns the same requests at the shallow skip.
func ShallowGrid(src tlr.TraceSource) []tlr.Request { return GridAt(src, ShallowSkip) }

// GridAt builds the benchmark requests at an arbitrary skip.
func GridAt(src tlr.TraceSource, skip uint64) []tlr.Request {
	var reqs []tlr.Request
	add := func(r tlr.Request) {
		if src != nil {
			r.Trace = src
		} else {
			r.Workload = Workload
		}
		reqs = append(reqs, r)
	}
	for _, w := range []int{64, 256, 1024} {
		add(tlr.Request{Study: &tlr.StudyConfig{Budget: Budget, Skip: skip, Window: w}})
	}
	for _, g := range []tlr.Geometry{tlr.Geometry512, tlr.Geometry4K, tlr.Geometry32K, tlr.Geometry256K} {
		add(tlr.Request{RTM: &tlr.RTMConfig{Geometry: g, Heuristic: tlr.ILREXP}, Skip: skip, Budget: Budget})
	}
	for _, h := range []tlr.Heuristic{tlr.ILRNE, tlr.IEXP} {
		add(tlr.Request{RTM: &tlr.RTMConfig{Geometry: tlr.Geometry4K, Heuristic: h, N: 4}, Skip: skip, Budget: Budget})
	}
	add(tlr.Request{VP: &tlr.VPConfig{Window: 256}, Skip: skip, Budget: Budget})
	return reqs
}

// EncodingWorkloads is the stream mix the encoding statistics cover:
// integer-heavy, memory-heavy and floating-point workloads, because the
// two encodings differ most where operand values are widest (the
// canonical form spends 5-10 byte varints on FP bit patterns and
// addresses that v4 delta- or dictionary-encodes away).
var EncodingWorkloads = []string{"gcc", "compress", "ijpeg", "applu", "tomcatv"}

// EncodingStats reports the format-level costs of one recorded stream
// mix: bytes per record in each encoding and at rest, and the
// per-record cost of decoding versus re-simulating.
type EncodingStats struct {
	Workloads []string
	Records   uint64 // per workload

	// Mean bytes per record (total bytes over total records).
	CanonicalBytesPerRecord float64 // canonical record encoding (v1 body, v2 payload)
	EncodedBytesPerRecord   float64 // in-memory v4 plane-split encoding
	FileBytesPerRecord      float64 // v4 container as written (flate-framed)

	// Mean over the workload mix of each workload's median nanoseconds
	// per record across encodingRounds interleaved rounds.
	StepNsPerRecord            float64 // live functional-simulator step
	CanonicalDecodeNsPerRecord float64 // v1/v2 per-record decode (the old replay path)
	DecodeNsPerRecord          float64 // v4 plane-split batched decode (the replay hot path)

	// DecodeSpeedup is the geometric mean over the workload mix of each
	// workload's median, across rounds, of the round's canonical-decode
	// time over its v4-decode time: how much faster the replay hot path
	// got, format for format, on the same streams.
	DecodeSpeedup float64
}

// encodingRounds is how many rounds MeasureEncoding times per workload.
// Each round times the step, the canonical decode and the v4 decode
// back to back, so a drift of the host's speed reaches all three alike
// and cancels from the round's ratio.
const encodingRounds = 9

// MeasureEncoding records n instructions of each workload in the mix
// and measures both encodings' density and decode cost against the live
// simulator on the same streams.
func MeasureEncoding(n uint64) (EncodingStats, error) {
	st := EncodingStats{Workloads: EncodingWorkloads, Records: n, DecodeSpeedup: 1}
	var totRecords, totCanon, totEnc, totFile uint64
	var stepNs, canonNs, decNs float64
	geo := 1.0
	for _, name := range EncodingWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			return st, fmt.Errorf("replaybench: unknown workload %q", name)
		}
		prog, err := w.Program()
		if err != nil {
			return st, err
		}
		rec := tracefile.NewRecorder()
		got, err := cpu.New(prog).Run(n, rec.Write)
		if err != nil {
			return st, err
		}
		tr := rec.Trace()
		fileBytes, err := tr.WriteTo(io.Discard)
		if err != nil {
			return st, err
		}
		canon, err := tr.CanonicalEncoding()
		if err != nil {
			return st, err
		}
		var step, cDec, vDec, ratio [encodingRounds]float64
		for r := range encodingRounds {
			if step[r], err = nsPerRecord(func() (uint64, error) {
				return cpu.New(prog).Run(n, func(*trace.Exec) {})
			}); err != nil {
				return st, err
			}
			if cDec[r], err = nsPerRecord(func() (uint64, error) {
				return tracefile.CanonicalDecode(canon, func(*trace.Exec) {})
			}); err != nil {
				return st, err
			}
			if vDec[r], err = nsPerRecord(func() (uint64, error) { return batchDecode(tr) }); err != nil {
				return st, err
			}
			ratio[r] = cDec[r] / vDec[r]
		}
		totRecords += got
		totCanon += uint64(tr.CanonicalBytes())
		totEnc += uint64(tr.Bytes())
		totFile += uint64(fileBytes)
		stepNs += median(step[:])
		canonNs += median(cDec[:])
		decNs += median(vDec[:])
		geo *= median(ratio[:])
	}
	nw := float64(len(EncodingWorkloads))
	st.CanonicalBytesPerRecord = float64(totCanon) / float64(totRecords)
	st.EncodedBytesPerRecord = float64(totEnc) / float64(totRecords)
	st.FileBytesPerRecord = float64(totFile) / float64(totRecords)
	st.StepNsPerRecord = stepNs / nw
	st.CanonicalDecodeNsPerRecord = canonNs / nw
	st.DecodeNsPerRecord = decNs / nw
	st.DecodeSpeedup = math.Pow(geo, 1/nw)
	return st, nil
}

// batchDecode drives the batched cursor over the whole trace, consuming
// records in place the way the replay engines do.
func batchDecode(tr *tracefile.Trace) (uint64, error) {
	cur := tr.Cursor()
	defer cur.Close()
	var n, sink uint64
	for {
		batch, err := cur.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		for i := range batch {
			sink += batch[i].PC
		}
		n += uint64(len(batch))
	}
	if sink == 1<<63 {
		// Impossible in practice; keeps the consume loop observable so it
		// cannot be optimised away from the measurement.
		return n, fmt.Errorf("replaybench: sentinel hit")
	}
	return n, nil
}

// StreamMemory reports the heap cost of replaying an on-disk trace
// through the incremental file stream at two stream lengths.  The
// constant-memory contract of streamed replay is that the allocation
// total is (near-)independent of record count: the decoder holds one
// batch arena, one flate window and fixed bufio buffers, whatever the
// file's length.  CI gates LargeAllocBytes against SmallAllocBytes.
type StreamMemory struct {
	SmallRecords    uint64
	LargeRecords    uint64
	SmallAllocBytes uint64 // heap allocated replaying the small file (median)
	LargeAllocBytes uint64 // heap allocated replaying the 4x file (median)
}

// streamAllocReps is how many replays of each file MeasureStreamMemory
// takes the median of.
const streamAllocReps = 5

// MeasureStreamMemory records two streams of one workload — n records
// and 4n records — saves them as version-4 files under dir, and
// measures the heap bytes allocated by a full streamed replay of each.
func MeasureStreamMemory(dir string, n uint64) (StreamMemory, error) {
	st := StreamMemory{}
	record := func(budget uint64, path string) (uint64, error) {
		w, ok := workload.ByName("compress")
		if !ok {
			return 0, fmt.Errorf("replaybench: unknown workload compress")
		}
		prog, err := w.Program()
		if err != nil {
			return 0, err
		}
		rec := tracefile.NewRecorder()
		got, err := cpu.New(prog).Run(budget, rec.Write)
		if err != nil {
			return 0, err
		}
		return got, rec.Trace().Save(path)
	}
	smallPath := filepath.Join(dir, "stream-small.trc")
	largePath := filepath.Join(dir, "stream-large.trc")
	var err error
	if st.SmallRecords, err = record(n, smallPath); err != nil {
		return st, err
	}
	if st.LargeRecords, err = record(4*n, largePath); err != nil {
		return st, err
	}
	st.SmallAllocBytes, st.LargeAllocBytes, err = replayAllocBytes(smallPath, largePath)
	return st, err
}

// replayAllocBytes measures the heap bytes one full streamed replay of
// each file allocates: the median of streamAllocReps replays per file,
// alternating the files.  Every replay starts from empty buffer pools
// (a sync.Pool keeps its objects through one GC, so two GCs run before
// each), so neither length reuses buffers the other one grew and both
// are measured in the same state.
func replayAllocBytes(small, large string) (uint64, uint64, error) {
	var allocs [2][]uint64
	for rep := 0; rep < streamAllocReps; rep++ {
		for i, path := range [2]string{small, large} {
			runtime.GC()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := streamFile(path); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&m1)
			allocs[i] = append(allocs[i], m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	for _, a := range allocs {
		slices.Sort(a)
	}
	return allocs[0][streamAllocReps/2], allocs[1][streamAllocReps/2], nil
}

// streamFile replays a trace file through the incremental decoder,
// consuming every record in place.
func streamFile(path string) error {
	s, err := tracefile.OpenFileStream(path)
	if err != nil {
		return err
	}
	defer s.Close()
	var sink uint64
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := range batch {
			sink += batch[i].PC
		}
	}
	if sink == 1<<63 {
		return fmt.Errorf("replaybench: sentinel hit")
	}
	return nil
}

// nsPerRecord runs f once and returns its nanoseconds per record.
func nsPerRecord(f func() (uint64, error)) (float64, error) {
	t0 := time.Now()
	n, err := f()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("replaybench: empty run")
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// median returns the median of xs, reordering them; an even count
// takes the upper middle value.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
