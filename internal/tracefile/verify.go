package tracefile

// The verifying pass over a version-4 container: how Load, Scan/ScanFile
// and SpoolToDir take a stored trace in.  Version-4 blocks decode
// independently (all delta state resets at a block boundary), so only
// inflating the payload and digesting the canonical stream have to run
// in order; decoding a block, checking it and re-encoding its records
// canonically run on up to GOMAXPROCS goroutines, the mirror image of
// Recorder.Trace's parallel block encode.

import (
	"crypto/sha256"
	"io"
	"runtime"
	"sync"

	"github.com/tracereuse/tlr/internal/trace"
)

// v4Job is one block of a verifying pass: framed and validated by the
// caller (readV4Block), decoded and canonically re-encoded by a worker.
type v4Job struct {
	blk   int
	b     v4Block
	plane *[]byte // pooled plane buffer holding b; nil in keep mode
	chunk *[]byte // pooled canonical encoding of the block's records
	err   error
	done  chan struct{} // signalled (capacity 1) when chunk and err are set
}

// planePool and chunkPool hold the per-block buffers of verifying
// passes: a block's planes (not in keep mode, where they go straight
// onto the kept encoding) and its records' canonical encoding.  A pass
// holds at most one of each per block in flight.
var (
	planePool = sync.Pool{New: func() any { return new([]byte) }}
	chunkPool = sync.Pool{New: func() any { return new([]byte) }}
)

// maxCanonicalRecord bounds one record's canonical encoding: flags, op
// and latency bytes, pc and next uvarints, and a location and value
// uvarint for each of at most maxRefsPerRecord references.
const maxCanonicalRecord = 3 + 2*maxUvarintLen + maxRefsPerRecord*2*maxUvarintLen

// verifyV4 reads the rest of a version-4 container, checking everything
// a streaming read checks, and returns the canonical digest and size of
// its records; Records then reports the record count, and in keep mode
// r.v4.enc and r.v4.blocks hold the validated payload.
//
// The calling goroutine inflates and frames the blocks in order
// (readV4Block: plane lengths, payload and expansion bounds, the flags
// and ops planes) and hands each to one of up to GOMAXPROCS workers,
// which decode it in BatchLen runs exactly as a streaming read does
// (decodeV4Run), check that every plane was consumed (checkConsumed)
// and encode its records canonically.  The caller digests those chunks
// in block order, then runs the end-of-payload checks (payloadTail) and
// compares the header's declarations (checkDeclared).  At most
// GOMAXPROCS blocks are in flight, and every worker has returned when
// verifyV4 does.
//
// The error is the one the sequential read gives: a block is decoded
// only after every check on it and on the blocks before it, and a
// framing error is reported only once every earlier block has decoded
// cleanly, so the first failing block's first failure wins.
func (r *Reader) verifyV4() (sum [sha256.Size]byte, canonical int64, err error) {
	nb := int((r.declaredRecords + BlockLen - 1) / BlockLen)
	workers := min(runtime.GOMAXPROCS(0), nb)
	// The chunk hint is the declared canonical size per block plus an
	// eighth, capped at what a block's records can possibly encode to, so
	// a lying header cannot make a pass allocate more.
	hint := 0
	if nb > 0 {
		hint = int(min(r.declaredCanonical/uint64(nb), BlockLen*maxCanonicalRecord))
		hint += hint / 8
	}
	slots := make([]v4Job, workers)
	for i := range slots {
		slots[i].done = make(chan struct{}, 1)
	}
	// One slot per block in flight, so handing a block over never waits
	// for a worker to take it: the caller goes on inflating the next.
	jobs := make(chan *v4Job, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decodeV4Blocks(r.dict, hint, jobs)
		}()
	}
	framed, retired := 0, 0
	defer func() {
		close(jobs)
		wg.Wait()
		for ; retired < framed; retired++ {
			slots[retired%workers].release()
		}
	}()
	h := sha256.New()
	// retire waits for the oldest block in flight and digests its chunk.
	retire := func() error {
		j := &slots[retired%workers]
		<-j.done
		retired++
		defer j.release()
		if j.err != nil {
			return j.err
		}
		h.Write(*j.chunk)
		canonical += int64(len(*j.chunk))
		r.n += uint64(len(j.b.flags))
		return nil
	}
	for framed < nb {
		if framed-retired == workers {
			if err := retire(); err != nil {
				return sum, 0, err
			}
		}
		j := &slots[framed%workers]
		j.blk = framed
		if !r.v4.keep {
			j.plane = planePool.Get().(*[]byte)
		}
		var ferr error
		if j.b, ferr = r.readV4Block(j.plane); ferr != nil {
			j.release()
			// A framing error stands only behind every earlier block.
			for retired < framed {
				if err := retire(); err != nil {
					return sum, 0, err
				}
			}
			return sum, 0, ferr
		}
		j.chunk = chunkPool.Get().(*[]byte)
		framed++
		jobs <- j
	}
	for retired < framed {
		if err := retire(); err != nil {
			return sum, 0, err
		}
	}
	if err := r.payloadTail(); err != io.EOF {
		return sum, 0, err
	}
	h.Sum(sum[:0])
	return sum, canonical, r.checkDeclared(r.n, sum, canonical)
}

// release returns a retired or abandoned job's pooled buffers.
func (j *v4Job) release() {
	if j.plane != nil {
		planePool.Put(j.plane)
		j.plane = nil
	}
	if j.chunk != nil {
		*j.chunk = (*j.chunk)[:0]
		chunkPool.Put(j.chunk)
		j.chunk = nil
	}
}

// decodeV4Blocks is one worker of a verifying pass: it decodes, checks
// and canonically encodes each block it receives (into a chunk of at
// least hint bytes), signalling each job's done when its chunk and
// error are set, until jobs is closed.
func decodeV4Blocks(dict []trace.Loc, hint int, jobs <-chan *v4Job) {
	a := arenaPool.Get().(*blockArena)
	defer arenaPool.Put(a)
	clear(a.dict[:])
	copy(a.dict[:], dict)
	var d planeDec
	for j := range jobs {
		chunk := (*j.chunk)[:0]
		if cap(chunk) < hint {
			chunk = make([]byte, 0, hint)
		}
		*j.chunk, j.err = decodeV4Block(&d, a, len(dict), j.blk, j.b, chunk)
		j.done <- struct{}{}
	}
}

// decodeV4Block decodes block blk in BatchLen runs, as the streaming
// reader does (so a block with several faults reports the one a stream
// reports), appending each record's canonical encoding to chunk, then
// checks that every plane was consumed exactly.
func decodeV4Block(d *planeDec, a *blockArena, dictLen, blk int, b v4Block, chunk []byte) ([]byte, error) {
	d.reset(b)
	clear(a.last[:dictLen])
	count := len(b.flags)
	base := uint64(blk) * BlockLen
	for done := 0; done < count; {
		n := min(BatchLen, count-done)
		if err := decodeV4Run(d, base+uint64(done), done, n, &a.dict, dictLen, &a.last, &a.fix, a.recs[:n]); err != nil {
			return chunk, err
		}
		for i := range a.recs[:n] {
			chunk = appendRecord(chunk, &a.recs[i])
		}
		done += n
	}
	return chunk, d.checkConsumed(blk)
}
