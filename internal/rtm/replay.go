package rtm

import (
	"context"
	"fmt"
	"io"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
)

// Trace-driven RTM simulation: the same reuse test, collection
// heuristics and bookkeeping as Sim, but driven by a recorded dynamic
// instruction stream instead of a live CPU.  The recorded stream plays
// the role of the program's execution; a shadow architectural state,
// reconstructed incrementally from the records' operand values, answers
// the reuse test's ReadLoc probes.
//
// Replay is exactly equivalent to Sim on the program that produced the
// stream: every location the reuse test can probe is a live-in of some
// stored entry, every stored entry was collected from observed records,
// and observing a record teaches the shadow state the current value of
// each location it touches — so every probe sees the value the live
// CPU would hold.  Reused segments are skipped in the stream just as
// the live simulator skips executing them, with the entry's net outputs
// applied to the shadow state the way applyEntry writes the CPU.

// ReplayStream is the recorded stream a Replay consumes: the shared
// batched record-stream interface (trace.Stream), which
// tracefile.Cursor (in-memory), tracefile.FileStream (on-disk) and the
// tlr composite sources all implement.  Batched delivery is what makes
// replay cheap: the stream decodes a run of records in one tight loop
// and the simulation walks them in place, instead of paying a decode
// call per record.  The Replay does not Close the stream; the caller
// that opened it does.
type ReplayStream = trace.Stream

// Replay couples a recorded stream with an RTM, mirroring Sim: at every
// record boundary it runs the reuse test, skips reused traces in the
// stream, and feeds observed records to the trace-collection heuristic.
type Replay struct {
	cfg   Config
	src   ReplayStream
	rtm   *RTM
	col   collector
	state replayState

	batch []trace.Exec
	bi    int

	executed uint64
	skipped  uint64
	hits     uint64
}

// NewReplay builds a replay simulation over a recorded stream.  The
// stream must be positioned at the point measurement should start (skip
// any warm-up records before constructing the Replay).
func NewReplay(cfg Config, src ReplayStream) *Replay {
	m := New(cfg.Geometry, cfg.MinLen)
	if cfg.InvalidateOnWrite {
		m.EnableInvalidation()
	}
	return &Replay{cfg: cfg, src: src, rtm: m, col: newCollector(cfg, m)}
}

// RTM returns the trace memory.
func (p *Replay) RTM() *RTM { return p.rtm }

// Run retires up to budget instructions (executed + skipped), stopping
// early at the end of the stream.
func (p *Replay) Run(budget uint64) (Result, error) {
	return p.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation, mirroring
// Sim.RunContext record for record.
func (p *Replay) RunContext(ctx context.Context, budget uint64) (Result, error) {
	if p.cfg.Verify {
		// Verify re-executes reused traces on a cloned CPU; there is no
		// CPU here.  Replay's equivalence oracle is the replay-vs-execute
		// test suite instead.
		return Result{}, fmt.Errorf("rtm: Config.Verify needs live execution and cannot run from a recorded trace")
	}
	var iter uint64
	for p.executed+p.skipped < budget {
		if iter%cpu.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return p.result(), err
			}
		}
		iter++
		if p.bi >= len(p.batch) {
			switch batch, err := p.src.NextBatch(); err {
			case nil:
				p.batch, p.bi = batch, 0
			case io.EOF:
				// End of the recorded stream: the live machine would have
				// halted here (or the recording ends; there is nothing
				// left to analyse either way).
				p.col.finish()
				return p.result(), nil
			default:
				return p.result(), err
			}
		}
		if entry := p.rtm.Lookup(p.batch[p.bi].PC, &p.state); entry != nil {
			// Reuse: consume the trace's records from the stream — the
			// record under the cursor plus Len-1 more — without executing
			// them, exactly as the live simulator skips them.  Records
			// still in the decoded batch are skipped by advancing the
			// batch index; only a trace spilling past the batch touches
			// the stream.  A short skip means the stream ended inside the
			// reused trace; the reuse itself is unaffected (its effects
			// come from the entry, not the stream), and the next
			// iteration observes the end.
			p.bi++
			if k := uint64(entry.Sum.Len - 1); k > 0 {
				if avail := uint64(len(p.batch) - p.bi); k <= avail {
					p.bi += int(k)
				} else {
					p.bi = len(p.batch)
					if _, err := p.src.Skip(k - avail); err != nil {
						return p.result(), err
					}
				}
			}
			for _, r := range entry.Sum.Outs {
				p.state.write(r.Loc, r.Val)
			}
			p.skipped += uint64(entry.Sum.Len)
			p.hits++
			p.col.reuseHit(entry)
			// Valid-bit mode: the reused trace's writes invalidate, after
			// the collector has stored any trace that ended before this
			// reuse (mirrors Sim).
			for _, r := range entry.Sum.Outs {
				p.rtm.NotifyWrite(r.Loc)
			}
			continue
		}
		e := &p.batch[p.bi]
		p.bi++
		p.executed++
		p.col.observe(e)
		p.state.observe(e)
		for _, r := range e.Outputs() {
			p.rtm.NotifyWrite(r.Loc)
		}
	}
	p.col.finish()
	return p.result(), nil
}

func (p *Replay) result() Result {
	return Result{
		Executed: p.executed,
		Skipped:  p.skipped,
		Hits:     p.hits,
		RTM:      p.rtm.Stats(),
		Stored:   p.rtm.Stored(),
		IRBRate:  p.col.irbRate(),
		Top:      p.rtm.TopTraces(10),
	}
}

// replayState is the shadow architectural state, one value per
// location.  Locations never yet observed read as zero; the reuse test
// never probes such a location on a well-formed stream (see the package
// comment above).
type replayState struct {
	vals trace.LocMap[uint64]
}

// ReadLoc answers the reuse test's state probes (rtm.State).
func (s *replayState) ReadLoc(l trace.Loc) uint64 { return s.vals.Get(l) }

func (s *replayState) write(l trace.Loc, v uint64) { s.vals.Set(l, v) }

// observe applies one executed record: inputs teach the shadow state
// values read from so-far-unseen locations, then outputs overwrite
// (reads precede writes within an instruction, so this order finishes
// on the post-instruction value even when a location is both).
func (s *replayState) observe(e *trace.Exec) {
	for _, r := range e.Inputs() {
		s.write(r.Loc, r.Val)
	}
	for _, r := range e.Outputs() {
		s.write(r.Loc, r.Val)
	}
}
