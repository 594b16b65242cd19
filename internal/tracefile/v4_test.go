package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// addTrace builds a single-block trace of n identical-shape records —
// add r3, r1, r2 with only r3's value advancing — so every plane
// position is predictable: record i owns ref/val bytes 3i..3i+2 (two
// inputs then the output), and the lat, pcx, nxx, refx and valx planes
// are all empty.
func addTrace(t *testing.T, n int) *Trace {
	t.Helper()
	if n > BlockLen {
		t.Fatalf("addTrace wants a single block, got n=%d", n)
	}
	rec := NewRecorder()
	var e trace.Exec
	for i := 0; i < n; i++ {
		e.Reset()
		e.Op, e.Lat = isa.ADD, isa.InfoOf(isa.ADD).Latency
		e.PC, e.Next = uint64(i), uint64(i)+1
		e.AddIn(trace.IntReg(1), 1)
		e.AddIn(trace.IntReg(2), 2)
		e.AddOut(trace.IntReg(3), uint64(i))
		rec.Write(&e)
	}
	return rec.Trace()
}

// reframeV4Block reparses the single block of tr.enc, hands mutable
// plane copies to mod, and reframes whatever mod left into fresh block
// bytes (header lengths recomputed to match the planes).
func reframeV4Block(t *testing.T, tr *Trace, mod func(b *v4Block)) []byte {
	t.Helper()
	b, _, err := parseV4Block(tr.enc, 0, int(tr.Records()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*[]byte{&b.flags, &b.ops, &b.pcb, &b.nxb, &b.lat, &b.pcx, &b.nxx, &b.ref, &b.refx, &b.val, &b.valx} {
		*p = append([]byte(nil), *p...)
	}
	mod(&b)
	var out []byte
	for _, l := range [7]int{len(b.lat), len(b.pcx), len(b.nxx), len(b.ref), len(b.refx), len(b.val), len(b.valx)} {
		out = binary.AppendUvarint(out, uint64(l))
	}
	for _, p := range [11][]byte{b.flags, b.ops, b.pcb, b.nxb, b.lat, b.pcx, b.nxx, b.ref, b.refx, b.val, b.valx} {
		out = append(out, p...)
	}
	return out
}

// v4Container wraps payload in a version-4 container carrying tr's
// header fields (count, digest, canonical size, dictionary) — the
// crafted-payload counterpart of Trace.WriteTo.
func v4Container(t *testing.T, tr *Trace, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(Magic[:])
	for _, v := range []any{Version4, tr.n} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(tr.sum[:])
	for _, v := range []uint64{uint64(tr.canonical), uint64(len(payload))} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(tr.dict))); err != nil {
		t.Fatal(err)
	}
	var vb [binary.MaxVarintLen64]byte
	for _, l := range tr.dict {
		buf.Write(vb[:binary.PutUvarint(vb[:], rotLoc(l))])
	}
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV4CorruptionCarriesRecordContext: every class of v4 plane
// corruption — bad codes, truncated escape planes, frame-level length
// lies, unconsumed plane bytes, invalid wide references — is rejected,
// and record-level failures name the failing record and plane offset.
func TestV4CorruptionCarriesRecordContext(t *testing.T) {
	tr := addTrace(t, 300)

	cases := []struct {
		name string
		mod  func(b *v4Block)
		want []string
	}{
		{
			// Record 10's output reference code byte set to the reserved
			// 0xFF: ref bytes run 3 per record, so its offset is 32.
			name: "reserved ref code",
			mod:  func(b *v4Block) { b.ref[32] = 0xFF },
			want: []string{"record 10 (ref plane offset 32)", "reference code 0xff out of range"},
		},
		{
			// A val byte escapes to valx, but the valx plane is empty.
			name: "truncated valx",
			mod:  func(b *v4Block) { b.val[32] = v4ByteEscape },
			want: []string{"record 10 (valx plane offset 0)", "unexpected EOF"},
		},
		{
			// A pc byte escapes to pcx, but the pcx plane is empty.
			name: "truncated pcx",
			mod:  func(b *v4Block) { b.pcb[10] = v4ByteEscape },
			want: []string{"record 10 (pcx plane offset 0)", "unexpected EOF"},
		},
		{
			// An extra pcx byte no record claims: the block must be
			// rejected for the unconsumed plane, not silently accepted.
			name: "unconsumed pcx byte",
			mod:  func(b *v4Block) { b.pcx = append(b.pcx, 0x00) },
			want: []string{"pcx plane", "records consumed 0"},
		},
		{
			// A wide reference whose refx code a direct byte could have
			// named (code 0 < 254).
			name: "wide code in direct range",
			mod: func(b *v4Block) {
				b.ref[0] = v4RefEscape
				b.refx = append(b.refx, 0x00)
			},
			want: []string{"record 0", "location code 0 out of range"},
		},
		{
			// A literal location whose parallel val byte is not the
			// mandatory 0x00.
			name: "literal with delta byte",
			mod: func(b *v4Block) {
				b.ref[2] = v4RefEscape // record 0's output (val byte zig(+0 - 0) = 0? no: first write of r3 is 0 -> delta 0)
				b.val[2] = 0x02
				b.refx = binary.AppendUvarint(b.refx, uint64(3)) // == dictLen: literal
				b.refx = binary.AppendUvarint(b.refx, rotLoc(trace.IntReg(3)))
				b.refx = binary.AppendUvarint(b.refx, 0)
			},
			want: []string{"record 0 (val plane offset 2)", "literal location carries delta byte 0x2"},
		},
		{
			// A literal location with the undefined kind 3.
			name: "literal with undefined kind",
			mod: func(b *v4Block) {
				b.ref[2] = v4RefEscape
				b.val[2] = 0x00
				b.refx = binary.AppendUvarint(b.refx, uint64(3))
				b.refx = binary.AppendUvarint(b.refx, 0x07) // rot low bits 11: kind 3
				b.refx = binary.AppendUvarint(b.refx, 0)
			},
			want: []string{"record 0", "undefined kind"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := v4Container(t, tr, reframeV4Block(t, tr, tc.mod))
			_, err := Load(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt v4 block accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}

	// Frame-level lies are caught before any record decodes: a val plane
	// shorter than the ref plane (the parallel-plane invariant) …
	short := reframeV4Block(t, tr, func(b *v4Block) {})
	var lens v4PlaneLens
	off := 0
	for i := range lens {
		l, n, err := sliceUvarint(short, off)
		if err != nil {
			t.Fatal(err)
		}
		lens[i], off = int(l), n
	}
	lied := binary.AppendUvarint(nil, uint64(lens[0]))
	for _, l := range []int{lens[1], lens[2], lens[3], lens[4], lens[5] - 1, lens[6]} {
		lied = binary.AppendUvarint(lied, uint64(l))
	}
	lied = append(lied, short[off:]...)
	if _, err := Load(bytes.NewReader(v4Container(t, tr, lied))); err == nil ||
		!strings.Contains(err.Error(), "val plane declares") {
		t.Errorf("val/ref length mismatch not rejected: %v", err)
	}

	// … and a valx length that is not a multiple of its 8-byte words.
	ragged := reframeV4Block(t, tr, func(b *v4Block) { b.valx = append(b.valx, 0xAA, 0xBB, 0xCC) })
	if _, err := Load(bytes.NewReader(v4Container(t, tr, ragged))); err == nil ||
		!strings.Contains(err.Error(), "not a multiple of its 8-byte words") {
		t.Errorf("ragged valx plane not rejected: %v", err)
	}

	// A truncated payload (the final block cut mid-plane) must fail with
	// a frame error, never decode short.
	whole := reframeV4Block(t, tr, func(b *v4Block) {})
	if _, err := Load(bytes.NewReader(v4Container(t, tr, whole[:len(whole)-5]))); err == nil {
		t.Error("truncated v4 block accepted")
	}

	// The unmodified reframe must still load back identically — the
	// crafting helpers themselves round-trip.
	back, err := Load(bytes.NewReader(v4Container(t, tr, whole)))
	if err != nil {
		t.Fatalf("reframed block does not load: %v", err)
	}
	if back.Digest() != tr.Digest() {
		t.Fatalf("reframed digest %s, want %s", back.Digest(), tr.Digest())
	}

	// The in-memory Cursor path reports the same record context for a
	// mid-stream corruption (mutating the trace's own block bytes).
	cur := addTrace(t, 300)
	// The ref plane starts after the 7-uvarint header and the four
	// count-long per-record planes (lat/pcx/nxx are empty here).
	hdr := 0
	for i := 0; i < 7; i++ {
		_, n, err := sliceUvarint(cur.enc, hdr)
		if err != nil {
			t.Fatal(err)
		}
		hdr = n
	}
	cur.enc[hdr+4*300+32] = 0xFF
	c := cur.Cursor()
	defer c.Close()
	var e trace.Exec
	var gotErr error
	for i := 0; i < 300; i++ {
		if gotErr = c.Next(&e); gotErr != nil {
			break
		}
	}
	if gotErr == nil || !strings.Contains(gotErr.Error(), "record 10 (ref plane offset 32)") {
		t.Errorf("cursor error %v does not carry record 10 / ref offset 32", gotErr)
	}
}

// TestLoadV4ChecksWhatItKeeps: Load keeps a version-4 container's
// payload as the Trace's encoding, so everything the payload and its
// header claim is checked on the way in.  A value byte changed to
// another that still decodes is caught by the digest alone; a header
// lying about the record count or the canonical size, bytes after the
// compressed frame and an over-declared plane are rejected; and an
// untouched payload is kept byte for byte.
func TestLoadV4ChecksWhatItKeeps(t *testing.T) {
	tr := addTrace(t, 300)
	whole := reframeV4Block(t, tr, func(b *v4Block) {})
	back, err := Load(bytes.NewReader(v4Container(t, tr, whole)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.enc, whole) || !slices.Equal(back.blocks, []int{0}) || !slices.Equal(back.dict, tr.dict) {
		t.Fatalf("Load did not keep the payload: %d bytes, blocks %v, dict %v", len(back.enc), back.blocks, back.dict)
	}

	// Record 10's output value delta 0x02 (+1) becomes 0x04 (+2): every
	// plane still decodes, so the streaming reader accepts it.
	flipped := v4Container(t, tr, reframeV4Block(t, tr, func(b *v4Block) { b.val[32] ^= 0x06 }))
	s, err := NewFileStream(bytes.NewReader(flipped))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Skip(tr.Records()); err != nil || n != tr.Records() {
		t.Fatalf("flipped value does not decode: %d records, %v", n, err)
	}
	s.Close()
	if _, err := Load(bytes.NewReader(flipped)); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("Load of a flipped value: %v, want a digest mismatch", err)
	}
	if _, err := Scan(bytes.NewReader(flipped)); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("Scan of a flipped value: %v, want a digest mismatch", err)
	}

	lying := func(mod func(h *Trace)) []byte {
		h := *tr
		mod(&h)
		return v4Container(t, &h, whole)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"canonical size", lying(func(h *Trace) { h.canonical++ }), "canonical bytes"},
		{"fewer records", lying(func(h *Trace) { h.n-- }), "tracefile:"},
		{"more records", lying(func(h *Trace) { h.n++ }), "tracefile:"},
		{"trailing data", append(v4Container(t, tr, whole), "extra"...), "trailing data"},
		{"over-declared plane", v4Container(t, tr, reframeV4Block(t, tr, func(b *v4Block) { b.lat = make([]byte, 301) })),
			"lat plane declares 301 bytes (limit 300)"},
	} {
		if _, err := Load(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load gives %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
