package trace

// Stream is a positioned, skippable stream of execution records
// delivered a decoded batch at a time: the unit every replay consumer
// pulls from, whatever produced it (an in-memory tracefile.Cursor, a
// tracefile.FileStream decoding a container incrementally, or a
// composite stitching several of either together).  Batched delivery is
// what makes replay cheap — the producer decodes a run of records in
// one tight loop and the consumer walks them in place — and what keeps
// streaming replay O(batch) in memory: no implementation may require
// the whole stream to be resident.
type Stream interface {
	// NextBatch returns the next run of decoded records.  The slice is
	// valid only until the next NextBatch, Skip or Close call; consumers
	// that retain a record must copy it.  It returns io.EOF cleanly at
	// the end of the stream.
	NextBatch() ([]Exec, error)

	// Skip advances past up to n records, returning how many were
	// actually skipped (fewer than n only at the end of the stream).
	Skip(n uint64) (uint64, error)

	// Close releases the stream's resources (decode arenas, file
	// handles).  The stream and any batch it returned must not be used
	// afterwards.
	Close()
}
