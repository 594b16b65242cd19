package tlr

import (
	"fmt"
	"io"

	"github.com/tracereuse/tlr/internal/ingest"
)

// Foreign-trace ingestion: converting trace files this package did not
// record — CSV address traces, "PC op" text listings — into canonical
// digest-addressed Traces.  An ingested trace carries no program
// provenance (there is no originating program to key it as); its content
// digest is its identity, so it caches, stores, replays, forwards and
// analyses exactly like any other digest-keyed trace.  See
// internal/ingest for the format drivers.

// IngestFormat selects and configures a foreign trace format.  Exactly
// one field must be set.
type IngestFormat struct {
	// CSV ingests a CSV address trace with this column layout.
	CSV *CSVFormat
	// PCText ingests the "PC op [in ...] [-> out ...]" text format.
	PCText *PCTextFormat
}

// CSVFormat is the column layout of a CSV address trace.  Column
// indices are 0-based; -1 means the column is absent.  See the field
// docs on the ingest package's declaration.
type CSVFormat = ingest.CSVLayout

// PCTextFormat is the "PC op" text format (no knobs yet; the struct
// keeps future options additive).
type PCTextFormat struct{}

// IngestOptions tunes an ingest pass.
type IngestOptions struct {
	// Lenient counts and skips malformed lines instead of failing on the
	// first one; IngestStats.Rejected reports how many were dropped.
	Lenient bool
	// MaxRecords stops the ingest after this many records (0 = no cap).
	MaxRecords uint64
}

// IngestStats reports what one ingest pass consumed: input lines read,
// canonical records produced, malformed lines dropped in lenient mode.
type IngestStats = ingest.Stats

func (f IngestFormat) mapper() (ingest.Mapper, error) {
	switch {
	case f.CSV != nil && f.PCText == nil:
		return ingest.NewCSV(*f.CSV)
	case f.PCText != nil && f.CSV == nil:
		return ingest.NewPCText(), nil
	default:
		return nil, fmt.Errorf("tlr: exactly one ingest format (CSV, PCText) must be set")
	}
}

// Ingest converts a foreign trace read from r into a canonical Trace.
// The pass is streaming — gzip-transparent, O(line) input memory — so
// multi-gigabyte foreign files convert without being buffered whole.
// Malformed lines fail the ingest with their line number unless
// opt.Lenient skips and counts them instead.
//
// The returned Trace is digest-keyed (foreign streams have no
// originating program) and complete; it replays through every
// trace-driven request kind and stores like any recorded trace.
func Ingest(r io.Reader, format IngestFormat, opt IngestOptions) (*Trace, IngestStats, error) {
	m, err := format.mapper()
	if err != nil {
		return nil, IngestStats{}, err
	}
	t, st, err := ingest.Ingest(r, m, ingest.Options{
		Lenient:    opt.Lenient,
		MaxRecords: opt.MaxRecords,
	})
	if err != nil {
		return nil, st, err
	}
	return &Trace{t: t, complete: true}, st, nil
}

// IngestTrace ingests a foreign trace (see Ingest) and registers the
// result in the Batcher's digest-addressed trace store, returning the
// digest for TraceRef use.  The ingest is accounted in the Batcher's
// Stats (IngestedTraces, IngestedRecords, IngestRejects).
func (b *Batcher) IngestTrace(r io.Reader, format IngestFormat, opt IngestOptions) (string, IngestStats, error) {
	t, st, err := Ingest(r, format, opt)
	if err != nil {
		return "", st, err
	}
	digest := b.svc.AddTrace(t.t)
	b.svc.NoteIngest(st.Records, st.Rejected)
	return digest, st, nil
}
