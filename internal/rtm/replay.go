package rtm

import (
	"context"
	"fmt"
	"io"

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
//
// Records reach it a batch at a time through Feed, whoever decodes them:
// RunContext pulls them from the Replay's own stream, and a shared stream
// pass hands the batches it decodes once to several Replays.
type Replay struct {
	run
	cfg   Config
	src   ReplayStream
	state replayState

	rest []trace.Exec // RunContext: records of the stream's batch not yet fed
	hop  uint64       // records of a reused trace still to skip at the next Feed
}

// NewReplay builds a replay simulation over a recorded stream.  The
// stream must be positioned at the point measurement should start (skip
// any warm-up records before constructing the Replay).  A Replay fed
// only through Feed needs no stream: pass nil.
func NewReplay(cfg Config, src ReplayStream) *Replay {
	m := New(cfg.Geometry, cfg.MinLen)
	if cfg.InvalidateOnWrite {
		m.EnableInvalidation()
	}
	return &Replay{run: run{rtm: m, col: newCollector(cfg, m)}, cfg: cfg, src: src}
}

// CheckReplay reports why cfg cannot run from a recorded trace, if it
// cannot: Verify re-executes reused traces on a cloned CPU, and there is
// no CPU here.  Replay's equivalence oracle is the replay-vs-execute test
// suite instead.
func (c Config) CheckReplay() error {
	if c.Verify {
		return fmt.Errorf("rtm: Config.Verify needs live execution and cannot run from a recorded trace")
	}
	return nil
}

// RTM returns the trace memory.
func (p *Replay) RTM() *RTM { return p.rtm }

// Run retires up to budget instructions (executed + skipped), stopping
// early at the end of the stream.
func (p *Replay) Run(budget uint64) (Result, error) {
	return p.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation, mirroring
// Sim.RunContext record for record: it feeds the stream's batches to
// Feed, polling ctx before each.  A later call resumes where this one
// stopped.
func (p *Replay) RunContext(ctx context.Context, budget uint64) (Result, error) {
	if err := p.cfg.CheckReplay(); err != nil {
		return Result{}, err
	}
	for p.executed+p.skipped < budget {
		if len(p.rest) == 0 {
			if err := ctx.Err(); err != nil {
				return p.result(), err
			}
			batch, err := p.src.NextBatch()
			if err == io.EOF {
				// End of the recorded stream: the live machine would have
				// halted here (or the recording ends; there is nothing
				// left to analyse either way).
				break
			}
			if err != nil {
				return p.result(), err
			}
			p.rest = batch
		}
		p.rest = p.rest[p.Feed(p.rest, budget):]
	}
	return p.Finish(), nil
}

// Feed consumes the next records of the stream, in order, until budget
// instructions have retired (executed or skipped).  A reused trace whose
// records reach past the end of batch skips the rest of them at the
// start of the next batches: the reuse itself does not depend on them
// (its effects come from the entry, not the stream), exactly as the live
// simulator skips executing them.  It returns how many records of batch
// it consumed: all of them unless the budget ran out first.
func (p *Replay) Feed(batch []trace.Exec, budget uint64) int {
	k := min(p.hop, uint64(len(batch)))
	p.hop -= k
	i := int(k)
	for i < len(batch) && p.executed+p.skipped < budget {
		if entry := p.rtm.Lookup(batch[i].PC, &p.state); entry != nil {
			// Reuse: consume the trace's records — the one under the
			// cursor plus Len-1 more — without executing them.
			i += entry.Sum.Len
			if i > len(batch) {
				p.hop = uint64(i - len(batch))
				i = len(batch)
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
		e := &batch[i]
		i++
		p.executed++
		p.col.observe(e)
		p.state.observe(e)
		for _, r := range e.Outputs() {
			p.rtm.NotifyWrite(r.Loc)
		}
	}
	return i
}

// Finish ends the replay, storing any trace the collector still holds,
// and returns its result.
func (p *Replay) Finish() Result {
	p.col.finish()
	return p.result()
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
