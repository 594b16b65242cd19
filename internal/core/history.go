// Package core implements the paper's data-value-reuse limit studies:
// instruction-level reusability with infinite history tables (§4.2–4.3)
// and trace-level reuse over maximal runs of reusable instructions
// (§4.4–4.5), including both reuse-latency models.  The executable forms
// of Theorems 1–4 live here as well.
package core

import (
	"github.com/tracereuse/tlr/internal/trace"
)

// History is the infinite instruction-reuse table of the limit study: for
// each static instruction (identified by PC) it stores every distinct
// input-value vector of its previously executed instances.  A dynamic
// instance is reusable iff its inputs were seen before (§4.2).
//
// Signatures are exact byte encodings, not hashes, so the study never
// overcounts reuse through collisions.  The table is open-addressed
// (see oatable.go): classification is the hottest lookup of every limit
// study, and the flat table replaces the seed's two-level map.
type History struct {
	tab sigTable
	buf []byte
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Observe classifies e as reusable or not, then records its input vector.
// Side-effecting instructions (OUT, HALT) are never reusable and are not
// recorded.
func (h *History) Observe(e *trace.Exec) bool {
	if e.SideEffect {
		return false
	}
	h.buf = trace.AppendInputSignature(h.buf[:0], e)
	return h.tab.seen(e.PC, h.buf)
}

// TraceHistory is the trace-level analogue of History: it stores, per
// starting PC, the live-in reference sequences of previously executed
// traces.  It implements the *strict* trace reusability test — a trace is
// reusable only if this exact (start PC, live-in sequence) was executed
// before — which by Theorem 2 is a subset of what per-instruction
// reusability suggests.  The limit study uses History (the Theorem 1 upper
// bound); TraceHistory powers the strict-mode ablation and the theorem
// tests.
type TraceHistory struct {
	tab sigTable
	buf []byte
}

// NewTraceHistory returns an empty trace history.
func NewTraceHistory() *TraceHistory { return &TraceHistory{} }

// Observe classifies a trace summary as reusable (seen before) and records
// it.  The identity of a trace is its starting PC plus its live-in
// locations and values in first-read order (IL(T), IV(T)).
func (t *TraceHistory) Observe(s *trace.Summary) bool {
	t.buf = trace.AppendRefSignature(t.buf[:0], s.Ins)
	return t.tab.seen(s.StartPC, t.buf)
}
