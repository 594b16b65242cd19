package tracefile

import (
	"bytes"
	"io"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// FuzzTraceReader hardens the trace decoder against untrusted input:
// cmd/tlrserve parses client uploads with exactly this code, so no byte
// sequence may panic it, loop it forever, or let a malformed file
// masquerade as a valid trace.  Accepted inputs must satisfy the decoder
// invariants, and Load must round-trip to an identical, identically
// digested trace.
func FuzzTraceReader(f *testing.F) {
	// Seeds: the frozen fixtures in all four container versions, plus
	// truncations and header corruptions of each.
	for _, name := range []string{"example", "li4200"} {
		for _, version := range allVersions {
			seed := readFixture(f, name, version)
			f.Add(seed)
			f.Add(seed[:len(seed)/2])
			f.Add(seed[:13])
			mut := append([]byte(nil), seed...)
			mut[9] ^= 0xff
			f.Add(mut)
			// One flip inside the record region (for v3/v4: the compressed
			// frame), so the fuzzer starts from near-valid damaged payloads.
			mut2 := append([]byte(nil), seed...)
			mut2[len(mut2)*3/4] ^= 0x20
			f.Add(mut2)
			// And one flip in the prelude's dictionary region (v3/v4), the
			// only uncompressed varint surface.
			if version >= Version3 {
				mut3 := append([]byte(nil), seed...)
				mut3[12+8+32+8+8+4] ^= 0x81
				f.Add(mut3)
			}
		}
	}
	f.Add([]byte("TLRTRACE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Streaming decode: every accepted record must satisfy the Exec
		// invariants the engines rely on.
		var n uint64
		streamErr := r.ForEach(func(e *trace.Exec) bool {
			if !e.Op.Valid() {
				t.Fatalf("record %d: invalid op %d accepted", n, e.Op)
			}
			if int(e.NIn) > len(e.In) || int(e.NOut) > len(e.Out) {
				t.Fatalf("record %d: ref counts %d/%d out of range", n, e.NIn, e.NOut)
			}
			n++
			return true
		})
		if streamErr != nil && streamErr == io.EOF {
			t.Fatal("ForEach leaked io.EOF")
		}

		// Load path: anything it accepts must round-trip bit-exactly.
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if loaded.Records() != n || streamErr != nil {
			t.Fatalf("Load accepted %d records but streaming saw %d (err %v)",
				loaded.Records(), n, streamErr)
		}
		var out bytes.Buffer
		if _, err := loaded.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo of loaded trace: %v", err)
		}
		again, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reloading written trace: %v", err)
		}
		if again.Digest() != loaded.Digest() || again.Records() != loaded.Records() {
			t.Fatalf("round trip changed identity: %s/%d vs %s/%d",
				loaded.Digest(), loaded.Records(), again.Digest(), again.Records())
		}
	})
}
