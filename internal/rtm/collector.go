package rtm

import (
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
)

// Collector is the exported face of the trace-collection heuristics, for
// simulators that drive their own fetch/execute loop (the execution-driven
// pipeline model) instead of using Sim.
type Collector interface {
	// Observe feeds one executed instruction.
	Observe(e *trace.Exec)
	// ReuseHit notifies that a stored trace was just reused.
	ReuseHit(e *Entry)
	// Finish flushes any trace still being collected.
	Finish()
}

// NewCollector builds the heuristic selected by cfg, inserting into m.
func NewCollector(cfg Config, m *RTM) Collector { return collectorAdapter{newCollector(cfg, m)} }

// collectorAdapter lifts the internal collector interface.
type collectorAdapter struct{ c collector }

func (a collectorAdapter) Observe(e *trace.Exec) { a.c.observe(e) }
func (a collectorAdapter) ReuseHit(e *Entry)     { a.c.reuseHit(e) }
func (a collectorAdapter) Finish()               { a.c.finish() }

// ApplyEntry performs the §3.3 processor-state update for a reused trace:
// write every output, redirect the PC.  Exported for external simulators.
func ApplyEntry(c *cpu.CPU, e *Entry) { applyEntry(c, e) }
