package tlr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// The wire layer: a versioned JSON encoding of Request and Result,
// shared by this package and cmd/tlrserve, so any JSON client can drive
// the server (and a Go client can decode its responses) without a
// bespoke schema.  Request and Result implement json.Marshaler and
// json.Unmarshaler in terms of it.
//
// The format is additive-only within a version: decoders ignore unknown
// fields, and WireVersion only bumps on an incompatible change.  A
// request may omit "v" (treated as the current version) and "kind"
// (inferred from which configuration is present); when both are given
// they must agree with the payload.

// WireVersion is the JSON encoding version emitted by Request and
// Result, and the highest version their decoders accept.
const WireVersion = 1

// TraceRefVersion is the encoding version of a trace reference (the
// "trace" object inside a request), versioned independently of the
// surrounding request so trace transport can evolve (e.g. chunked
// upload) without a wire-wide bump.
const TraceRefVersion = 1

// traceJSON is the versioned trace-reference encoding.  A reference
// names the stream by content digest, carries the encoded trace file
// inline (base64), or both; at least one must be present.  Digest-only
// references resolve against the executing Batcher's (or server's)
// trace store — upload once with POST /v1/traces, sweep by digest.
type traceJSON struct {
	V      int    `json:"v,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Data is a complete trace file in any container version; writers
	// emit the compressed plane-split (version-4) container, so inline
	// payloads spend a fraction of the canonical bytes on the wire.
	Data []byte `json:"data,omitempty"`
}

// The study, VP and analyze configurations carry their own JSON tags
// and cross the wire as declared.  rtm.Geometry, rtm.Config and
// pipeline.Config stay untagged, so the RTM and pipeline kinds keep
// these wire structs: the figure golden and the benchmark's pinned
// result hash encode Geometry under its Go field names where the wire
// spells them in lower case, and an untagged rtm.Config keeps Verify in
// the cache key (a verified run is never answered by an unverified one)
// and off the wire.
type geometryJSON struct {
	Sets        int `json:"sets"`
	PCWays      int `json:"pcWays"`
	TracesPerPC int `json:"tracesPerPC"`
}

// studyJSON is StudyConfig plus its pre-versioned spelling of
// TLRVariants, still accepted on input (constants first, then
// proportionals, as the original server appended them).
type studyJSON struct {
	StudyConfig
	TLRConst []float64 `json:"tlrConst,omitempty"`
	TLRProp  []float64 `json:"tlrProp,omitempty"`
}

type rtmJSON struct {
	Geometry geometryJSON `json:"geometry"`
	// Heuristic is never omitted: ILR NE is its zero value.
	Heuristic         Heuristic `json:"heuristic"`
	N                 int       `json:"n,omitempty"`
	MinLen            int       `json:"minLen,omitempty"`
	InvalidateOnWrite bool      `json:"invalidateOnWrite,omitempty"`
}

type pipelineJSON struct {
	FetchWidth      int      `json:"fetchWidth,omitempty"`
	Window          int      `json:"window,omitempty"`
	FrontLat        int      `json:"frontLat,omitempty"`
	ReuseLat        float64  `json:"reuseLat,omitempty"`
	WaitForOperands bool     `json:"waitForOperands,omitempty"`
	RTM             *rtmJSON `json:"rtm,omitempty"`
}

type requestJSON struct {
	V        int            `json:"v,omitempty"`
	ID       string         `json:"id,omitempty"`
	Workload string         `json:"workload,omitempty"`
	Source   string         `json:"source,omitempty"`
	Trace    *traceJSON     `json:"trace,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Study    *studyJSON     `json:"study,omitempty"`
	RTM      *rtmJSON       `json:"rtm,omitempty"`
	Pipeline *pipelineJSON  `json:"pipeline,omitempty"`
	VP       *VPConfig      `json:"vp,omitempty"`
	Analyze  *AnalyzeConfig `json:"analyze,omitempty"`
	Skip     uint64         `json:"skip,omitempty"`
	Budget   uint64         `json:"budget,omitempty"`
}

type resultJSON struct {
	V         int             `json:"v,omitempty"`
	Index     int             `json:"index"`
	ID        string          `json:"id"`
	Kind      string          `json:"kind,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Node      string          `json:"node,omitempty"`
	Forwarded bool            `json:"forwarded,omitempty"`
	Study     *StudyResult    `json:"study,omitempty"`
	RTM       *RTMResult      `json:"rtm,omitempty"`
	Pipe      *PipelineResult `json:"pipeline,omitempty"`
	VP        *VPResult       `json:"vp,omitempty"`
	Analyze   *AnalyzeResult  `json:"analyze,omitempty"`
	Error     string          `json:"error,omitempty"`
}

func checkWireVersion(v int) error {
	if v < 0 || v > WireVersion {
		return fmt.Errorf("tlr: unsupported wire version %d (this build speaks <= %d)", v, WireVersion)
	}
	return nil
}

func toRTMJSON(c *RTMConfig) *rtmJSON {
	if c == nil {
		return nil
	}
	return &rtmJSON{
		Geometry:          geometryJSON{Sets: c.Geometry.Sets, PCWays: c.Geometry.PCWays, TracesPerPC: c.Geometry.TracesPerPC},
		Heuristic:         c.Heuristic,
		N:                 c.N,
		MinLen:            c.MinLen,
		InvalidateOnWrite: c.InvalidateOnWrite,
	}
}

func fromRTMJSON(j *rtmJSON) *RTMConfig {
	if j == nil {
		return nil
	}
	return &RTMConfig{
		Geometry:          Geometry{Sets: j.Geometry.Sets, PCWays: j.Geometry.PCWays, TracesPerPC: j.Geometry.TracesPerPC},
		Heuristic:         j.Heuristic,
		N:                 j.N,
		MinLen:            j.MinLen,
		InvalidateOnWrite: j.InvalidateOnWrite,
	}
}

// MarshalJSON encodes the request in the versioned wire format.  A
// request carrying an assembled Prog is encoded as its disassembly
// (assembly round-trips exactly), and one carrying a trace source is
// encoded as a versioned trace reference — digest-only for TraceRef,
// digest plus the inline trace bytes otherwise — so any request can
// cross the wire.
func (r Request) MarshalJSON() ([]byte, error) {
	j := requestJSON{
		V:        WireVersion,
		ID:       r.ID,
		Workload: r.Workload,
		Source:   r.Source,
		Kind:     string(r.Kind()),
		VP:       r.VP,
		Analyze:  r.Analyze,
		Skip:     r.Skip,
		Budget:   r.Budget,
	}
	if r.Prog != nil {
		if r.Source != "" || r.Workload != "" || r.Trace != nil {
			return nil, errors.New("tlr: request sets more than one of Workload, Source, Prog, Trace")
		}
		j.Source = Disassemble(r.Prog)
	}
	if r.Trace != nil {
		if r.Source != "" || r.Workload != "" {
			return nil, errors.New("tlr: request sets more than one of Workload, Source, Prog, Trace")
		}
		tj, err := marshalTraceSource(r.Trace)
		if err != nil {
			return nil, err
		}
		j.Trace = tj
	}
	if r.Study != nil {
		j.Study = &studyJSON{StudyConfig: *r.Study}
	}
	j.RTM = toRTMJSON(r.RTM)
	if p := r.Pipeline; p != nil {
		j.Pipeline = &pipelineJSON{
			FetchWidth:      p.FetchWidth,
			Window:          p.Window,
			FrontLat:        p.FrontLat,
			ReuseLat:        p.ReuseLat,
			WaitForOperands: p.WaitForOperands,
			RTM:             toRTMJSON(p.RTM),
		}
	}
	return json.Marshal(j)
}

// marshalTraceSource encodes a trace source as a wire reference.  A
// TraceRef stays a bare digest (the bytes live in the server's store);
// every other source — composites included — is materialised and
// shipped inline alongside its digest, so the receiver can verify what
// it decodes.
func marshalTraceSource(src TraceSource) (*traceJSON, error) {
	if ref, ok := src.(refSource); ok {
		return &traceJSON{V: TraceRefVersion, Digest: string(ref)}, nil
	}
	t, err := materialize(nil, src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return nil, err
	}
	return &traceJSON{V: TraceRefVersion, Digest: t.Digest(), Data: buf.Bytes()}, nil
}

// UnmarshalJSON decodes the versioned wire format.
func (r *Request) UnmarshalJSON(data []byte) error {
	var j requestJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if err := checkWireVersion(j.V); err != nil {
		return err
	}
	out := Request{
		ID:       j.ID,
		Workload: j.Workload,
		Source:   j.Source,
		RTM:      fromRTMJSON(j.RTM),
		VP:       j.VP,
		Analyze:  j.Analyze,
		Skip:     j.Skip,
		Budget:   j.Budget,
	}
	if tj := j.Trace; tj != nil {
		if tj.V < 0 || tj.V > TraceRefVersion {
			return fmt.Errorf("tlr: unsupported trace reference version %d (this build speaks <= %d)", tj.V, TraceRefVersion)
		}
		switch {
		case len(tj.Data) > 0:
			t, err := ReadTrace(bytes.NewReader(tj.Data))
			if err != nil {
				return fmt.Errorf("tlr: decoding inline trace: %w", err)
			}
			if tj.Digest != "" && tj.Digest != t.Digest() {
				return fmt.Errorf("tlr: inline trace digest mismatch: reference says %s, data is %s", tj.Digest, t.Digest())
			}
			out.Trace = t
		case tj.Digest != "":
			out.Trace = TraceRef(tj.Digest)
		default:
			return errors.New("tlr: trace reference needs a digest or inline data")
		}
	}
	if s := j.Study; s != nil {
		cfg := s.StudyConfig
		for _, c := range s.TLRConst {
			cfg.TLRVariants = append(cfg.TLRVariants, ConstLatency(c))
		}
		for _, k := range s.TLRProp {
			cfg.TLRVariants = append(cfg.TLRVariants, PropLatency(k))
		}
		out.Study = &cfg
	}
	if p := j.Pipeline; p != nil {
		out.Pipeline = &PipelineConfig{
			FetchWidth:      p.FetchWidth,
			Window:          p.Window,
			FrontLat:        p.FrontLat,
			ReuseLat:        p.ReuseLat,
			WaitForOperands: p.WaitForOperands,
			RTM:             fromRTMJSON(p.RTM),
		}
	}
	if j.Kind != "" && j.Kind != string(out.Kind()) {
		return fmt.Errorf("tlr: request kind %q does not match its configuration (%q)", j.Kind, out.Kind())
	}
	*r = out
	return nil
}

// MarshalJSON encodes the result in the versioned wire format; Err
// becomes an "error" string.
func (r Result) MarshalJSON() ([]byte, error) {
	j := resultJSON{
		V:         WireVersion,
		Index:     r.Index,
		ID:        r.ID,
		Kind:      string(r.Kind),
		Cached:    r.Cached,
		Node:      r.Node,
		Forwarded: r.Forwarded,
		Study:     r.Study,
		RTM:       r.RTM,
		Pipe:      r.Pipeline,
		VP:        r.VP,
		Analyze:   r.Analyze,
	}
	if r.Err != nil {
		j.Error = r.Err.Error()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the versioned wire format; a non-empty "error"
// becomes an opaque error value.
func (r *Result) UnmarshalJSON(data []byte) error {
	var j resultJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if err := checkWireVersion(j.V); err != nil {
		return err
	}
	*r = Result{
		Index:     j.Index,
		ID:        j.ID,
		Kind:      Kind(j.Kind),
		Cached:    j.Cached,
		Node:      j.Node,
		Forwarded: j.Forwarded,
		Study:     j.Study,
		RTM:       j.RTM,
		Pipeline:  j.Pipe,
		VP:        j.VP,
		Analyze:   j.Analyze,
	}
	if j.Error != "" {
		r.Err = errors.New(j.Error)
	}
	return nil
}
