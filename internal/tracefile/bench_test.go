package tracefile

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// benchTrace records one gcc stream for the decode benchmarks.
func benchTrace(b *testing.B, n uint64) *Trace {
	b.Helper()
	return recordWorkload(b, "gcc", n)
}

// BenchmarkBatchDecode measures the batched v3 decode path the replay
// engines drive (NextBatch, records consumed in place) — what every
// replayed record costs before analysis.  Compare against
// BenchmarkSimulatorStep (the cost a replayed record is up against) and
// BenchmarkCanonicalDecode (the per-record decode this format
// replaced).
func BenchmarkBatchDecode(b *testing.B) {
	tr := benchTrace(b, 200_000)
	b.ResetTimer()
	var sink, total uint64
	for i := 0; i < b.N; i++ {
		cur := tr.Cursor()
		for {
			batch, err := cur.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			for j := range batch {
				sink += batch[j].PC
			}
			total += uint64(len(batch))
		}
		cur.Close()
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("empty stream")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/record")
}

// BenchmarkCursorRun measures the callback delivery path (Cursor.Run)
// the stream-consuming analyses use.
func BenchmarkCursorRun(b *testing.B) {
	tr := benchTrace(b, 200_000)
	ctx := context.Background()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		cur := tr.Cursor()
		n, err := cur.Run(ctx, tr.Records(), func(*trace.Exec) {})
		cur.Close()
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/record")
}

// BenchmarkCanonicalDecode measures the canonical (v1/v2) per-record
// decode loop that was the replay hot path before the v3 encoding —
// the baseline for the decodeSpeedup number CI gates.
func BenchmarkCanonicalDecode(b *testing.B) {
	tr := benchTrace(b, 200_000)
	canon, err := tr.CanonicalEncoding()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		n, err := CanonicalDecode(canon, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/record")
}

// BenchmarkSimulatorStep measures the functional simulator producing
// the same stream live: the cost a replayed record is up against.
func BenchmarkSimulatorStep(b *testing.B) {
	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	const n = 200_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.New(prog).Run(n, func(*trace.Exec) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*n), "ns/record")
}

// recordSink keeps BenchmarkRecord's result live.
var recordSink *Trace

// BenchmarkRecord measures recording: Recorder.Write for every record,
// then Trace — dictionary, block encode, digest and assembly.  The
// windows are 200k records of the four workloads the replay-grid
// benchmark records, whose canonical sizes (13 to 46 B/record) and
// dictionaries differ; the simulator runs before the timer starts.
// ns/record and B/record are per recorded record.
func BenchmarkRecord(b *testing.B) {
	const n = 200_000
	for _, name := range []string{"gcc", "compress", "ijpeg", "tomcatv"} {
		b.Run(name, func(b *testing.B) {
			recs := execWorkload(b, name, n)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := NewRecorder()
				for j := range recs {
					rec.Write(&recs[j])
				}
				recordSink = rec.Trace()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			total := float64(uint64(b.N) * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/total, "B/record")
		})
	}
}

// BenchmarkFileStreamReplay measures the incremental on-disk replay
// path (FileStream) end to end, with allocation reporting: the B/op
// column is the constant-memory contract — divided by the record count
// it must stay a tiny fraction of what materialising the trace costs
// per record, whatever the trace's length (the disk-tier replay
// guarantee; replaybench.MeasureStreamMemory exports the CI-gated
// version of the same check).  The only length-proportional allocations
// are compress/flate's transient per-deflate-block tables (~0.3
// B/record); the decoder's own loop is allocation-free and its resident
// state is one batch arena plus fixed buffers.  The sub-benchmarks
// replay a 1x and a 4x stream of the same workload for side-by-side
// comparison.
func BenchmarkFileStreamReplay(b *testing.B) {
	for _, size := range []struct {
		name string
		n    uint64
	}{{"200k", 200_000}, {"800k", 800_000}} {
		b.Run(size.name, func(b *testing.B) {
			tr := benchTrace(b, size.n)
			path := filepath.Join(b.TempDir(), "bench.trc")
			if err := tr.Save(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink, total uint64
			for i := 0; i < b.N; i++ {
				s, err := OpenFileStream(path)
				if err != nil {
					b.Fatal(err)
				}
				for {
					batch, err := s.NextBatch()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					for j := range batch {
						sink += batch[j].PC
					}
					total += uint64(len(batch))
				}
				s.Close()
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("empty stream")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/record")
		})
	}
}

// containerBench runs load over the version-4 containers of 20k- and
// 300k-record recordings of gcc, compress, ijpeg and tomcatv, one
// sub-benchmark per size and workload, reporting ns/record.  These are
// the containers a trace store takes in: the upload and promote paths
// load or scan exactly such files.  20k records are 5 blocks; 300k are
// 74, the size of serve-read's uploads, enough blocks for the verifying
// pass's workers to overlap the caller's inflate and digest.
func containerBench(b *testing.B, load func(data []byte) (uint64, error)) {
	for _, size := range []struct {
		name string
		n    uint64
	}{{"20k", 20_000}, {"300k", 300_000}} {
		b.Run(size.name, func(b *testing.B) {
			for _, name := range []string{"gcc", "compress", "ijpeg", "tomcatv"} {
				b.Run(name, func(b *testing.B) {
					var buf bytes.Buffer
					if _, err := recordWorkload(b, name, size.n).WriteTo(&buf); err != nil {
						b.Fatal(err)
					}
					data := buf.Bytes()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						got, err := load(data)
						if err != nil {
							b.Fatal(err)
						}
						if got != size.n {
							b.Fatalf("read %d records, want %d", got, size.n)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*size.n), "ns/record")
				})
			}
		})
	}
}

// BenchmarkContainerLoad measures Load of a version-4 container: the
// cost of a disk-tier promote, a memory-tier upload or a peer fetch.
func BenchmarkContainerLoad(b *testing.B) {
	containerBench(b, func(data []byte) (uint64, error) {
		t, err := Load(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		return t.Records(), nil
	})
}

// BenchmarkContainerSpool measures SpoolToDir of a version-4
// container into a directory that already holds its file, so each
// iteration is the upload's one pass: tee to a temp file plus the
// validating decode.  "stream" keeps nothing, as for an upload over the
// store's promote bound; "keep" keeps the payload, as for one within
// it.
func BenchmarkContainerSpool(b *testing.B) {
	for _, c := range []struct {
		name    string
		keepMax int64
	}{{"stream", 0}, {"keep", 1 << 30}} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			containerBench(b, func(data []byte) (uint64, error) {
				info, _, err := SpoolToDir(bytes.NewReader(data), dir, c.keepMax)
				return info.Records, err
			})
		})
	}
}

// BenchmarkContainerScan measures Scan of a version-4 container: the
// validating pass of a SpoolToDir upload.
func BenchmarkContainerScan(b *testing.B) {
	containerBench(b, func(data []byte) (uint64, error) {
		info, err := Scan(bytes.NewReader(data))
		return info.Records, err
	})
}
