package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// errAfterReader yields n bytes of data then a distinctive error.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

type nopCloserR struct{ io.Reader }

func (nopCloserR) Close() error { return nil }

// TestReadAheadDeliversBytes checks the prefetched stream is
// byte-identical to the source across sizes that land on and around
// the chunk boundary, under randomly sized reads.
func TestReadAheadDeliversBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 100, readAheadChunk - 1, readAheadChunk, readAheadChunk + 1, 3*readAheadChunk + 17} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			src := make([]byte, size)
			rng.Read(src)
			ra := newReadAhead(nopCloserR{bytes.NewReader(src)})
			defer ra.Close()
			var got bytes.Buffer
			buf := make([]byte, 1+rng.Intn(8192))
			for {
				n, err := ra.Read(buf)
				got.Write(buf[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), src) {
				t.Fatalf("read-ahead corrupted the stream: got %d bytes, want %d", got.Len(), size)
			}
			// EOF must be sticky.
			if n, err := ra.Read(buf); n != 0 || err != io.EOF {
				t.Fatalf("post-EOF read: n=%d err=%v", n, err)
			}
		})
	}
}

// TestReadAheadErrorAfterData checks a mid-stream source error is
// delivered only after every preceding byte.
func TestReadAheadErrorAfterData(t *testing.T) {
	boom := errors.New("disk on fire")
	data := bytes.Repeat([]byte{0xAB}, 1000)
	ra := newReadAhead(nopCloserR{&errAfterReader{data: data, err: boom}})
	defer ra.Close()
	got, err := io.ReadAll(ra)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %d bytes before the error, want %d", len(got), len(data))
	}
}

// TestReadAheadCloseMidStream checks Close releases a prefetcher that
// is still running (blocked with chunks in flight) without losing pool
// buffers or leaking the goroutine — Close returning proves the
// goroutine exited, because Close drains until the channel closes.
func TestReadAheadCloseMidStream(t *testing.T) {
	src := bytes.NewReader(make([]byte, 10*readAheadChunk))
	ra := newReadAhead(nopCloserR{src})
	// Consume a little so the prefetcher is mid-file, then abandon.
	if _, err := io.ReadFull(ra, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ra.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Read(make([]byte, 1)); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

// TestReadAheadHoldsDepthChunks checks a stream over many chunks
// allocates no more than readAheadDepth of them: consumed chunks are
// recycled within the stream, so the per-stream bound holds however
// the prefetcher and the reader are scheduled.
func TestReadAheadHoldsDepthChunks(t *testing.T) {
	src := bytes.NewReader(make([]byte, 12*readAheadChunk))
	p := make([]byte, 4096)
	runtime.GC() // a sync.Pool keeps its objects through one GC
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ra := newReadAhead(nopCloserR{src})
	for {
		if _, err := ra.Read(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(readAheadDepth*readAheadChunk+readAheadChunk/2); got > limit {
		t.Errorf("streaming 12 chunks allocated %d B, want <= %d (%d chunks and change)", got, limit, readAheadDepth)
	}
}
