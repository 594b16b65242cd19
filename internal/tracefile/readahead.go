package tracefile

import (
	"io"
	"sync"
)

// Disk-tier read-ahead for streamed replay.  A FileStream's decode
// loop alternates CPU work (inflate + plane decode) with blocking
// file reads; on the disk tier that serialises the two.  readAhead
// moves the file reads onto one background goroutine that stays a few
// fixed-size chunks in front of the decoder, so the next v4 block's
// bytes are already buffered when the current one finishes decoding —
// replay overlaps I/O with decode instead of ping-ponging.
//
// A stream draws at most readAheadDepth chunks from a shared pool and
// then recycles those same chunks through a free list of its own, so
// per-stream memory stays fixed and the O(batch) replay guarantee (and
// its alloc gates) holds: the per-open cost is one goroutine and three
// channels, amortised over the whole file.  (Recycling through the
// shared pool alone does not keep the bound: a chunk the decoder puts
// back can land in another P's private slot, out of the prefetcher's
// reach, and the prefetcher allocates another.)

const (
	// readAheadChunk is the unit of prefetch.  256 KiB spans many v4
	// blocks, big enough to keep a spinning disk streaming and small
	// enough that three in flight cost under 1 MiB per open stream.
	readAheadChunk = 256 << 10
	// readAheadDepth is how many chunks one stream holds: the one being
	// decoded and those prefetched ahead of it.
	readAheadDepth = 3
)

var readAheadPool = sync.Pool{
	New: func() any {
		b := make([]byte, readAheadChunk)
		return &b
	},
}

// raChunk is one filled prefetch buffer.  err (if any) applies after
// the n valid bytes.
type raChunk struct {
	buf *[]byte
	n   int
	err error
}

// readAhead is an io.ReadCloser that prefetches its source through a
// single background goroutine.  It is not safe for concurrent Read,
// matching the FileStream it feeds.
type readAhead struct {
	ch   chan raChunk
	free chan *[]byte // consumed chunks, for the prefetcher to refill
	stop chan struct{}
	wg   sync.WaitGroup
	c    io.Closer

	cur  *[]byte // chunk being consumed, nil between chunks
	data []byte  // unread remainder of cur
	err  error   // terminal error, delivered after data drains
}

// newReadAhead starts prefetching src immediately (the container
// header is the first thing a FileStream reads anyway).  Close stops
// the goroutine and closes src.
func newReadAhead(src io.ReadCloser) *readAhead {
	ra := &readAhead{
		ch:   make(chan raChunk, readAheadDepth),
		free: make(chan *[]byte, readAheadDepth),
		stop: make(chan struct{}),
		c:    src,
	}
	ra.wg.Add(1)
	go func() {
		defer ra.wg.Done()
		defer close(ra.ch)
		for drawn := 0; ; drawn++ {
			var buf *[]byte
			if drawn < readAheadDepth {
				buf = readAheadPool.Get().(*[]byte)
			} else {
				select {
				case buf = <-ra.free:
				case <-ra.stop:
					return
				}
			}
			n, err := io.ReadFull(src, *buf)
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			select {
			case ra.ch <- raChunk{buf: buf, n: n, err: err}:
			case <-ra.stop:
				readAheadPool.Put(buf)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ra
}

func (r *readAhead) Read(p []byte) (int, error) {
	for len(r.data) == 0 {
		if r.cur != nil {
			r.free <- r.cur // never blocks: the stream holds at most readAheadDepth chunks
			r.cur = nil
		}
		if r.err != nil {
			return 0, r.err
		}
		c, ok := <-r.ch
		if !ok {
			// Only reachable after Close raced a concurrent Read,
			// which the contract forbids; fail cleanly anyway.
			return 0, io.ErrClosedPipe
		}
		r.cur, r.data, r.err = c.buf, (*c.buf)[:c.n], c.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// Close stops the prefetcher, returns every chunk the stream holds to
// the pool and closes the underlying source.
func (r *readAhead) Close() error {
	close(r.stop)
	// The goroutine may be blocked on a send; draining until the
	// channel closes guarantees it has exited and no chunk is lost.
	for c := range r.ch {
		readAheadPool.Put(c.buf)
	}
	r.wg.Wait()
	close(r.free)
	for buf := range r.free {
		readAheadPool.Put(buf)
	}
	if r.cur != nil {
		readAheadPool.Put(r.cur)
		r.cur = nil
	}
	r.data, r.err = nil, io.ErrClosedPipe
	return r.c.Close()
}
