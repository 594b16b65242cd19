package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// sequentialVerify is the verifying pass as it was before it went
// parallel, kept as the reference the parallel pass is held to: one
// streaming read (readBatch frames, checks and decodes one block after
// another), every record's canonical form hashed in order, then the
// header's declarations checked.  It returns the identity the pass
// establishes ("digest/records/canonical bytes") or "error: " and the
// error's text.
func sequentialVerify(data []byte) string {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return "error: " + err.Error()
	}
	h := newCanonicalHasher()
	recs := make([]trace.Exec, BatchLen)
	for {
		n, err := rd.readBatch(recs)
		if err == io.EOF {
			break
		} else if err != nil {
			return "error: " + err.Error()
		}
		for i := range recs[:n] {
			h.write(&recs[i])
		}
	}
	sum := h.sum()
	if err := rd.checkDeclared(rd.Records(), sum, h.n); err != nil {
		return "error: " + err.Error()
	}
	return identity(fmt.Sprintf("%s%x", DigestPrefix, sum), rd.Records(), h.n, nil)
}

// identity renders what a pass established the way sequentialVerify
// does.
func identity(digest string, records uint64, canonical int64, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s/%d/%d", digest, records, canonical)
}

// joinChecker returns a check that fails the test when a call left a
// goroutine of its own behind: no goroutine may still be inside a
// verifying pass's worker once the call has returned (every worker is
// joined, not merely told to stop), and the goroutine count must come
// back to what it was before the call.
func joinChecker(t *testing.T) func(what string, before int) {
	buf := make([]byte, 1<<18)
	return func(what string, before int) {
		t.Helper()
		if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], []byte("tracefile.decodeV4Blocks(")) {
			t.Fatalf("%s: a verifying worker outlived the call:\n%s", what, buf[:n])
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines leaked: %d before, %d after", what, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// v4Damage is one way to damage a block, applied to copies of its
// planes before the block is reframed.
type v4Damage struct {
	name string
	mod  func(b *v4Block)
}

// v4Damages covers both halves of the pass: the first two are caught
// by the caller as it frames the block (an undefined op byte, a plane
// declaring more bytes than the block may hold), the last two by a
// worker as it decodes it (a reserved reference code, an escape-plane
// byte no record consumes).
var v4Damages = []v4Damage{
	{"op", func(b *v4Block) { b.ops[len(b.ops)/2] = 255 }},
	{"lat-length", func(b *v4Block) { b.lat = make([]byte, len(b.flags)+1) }},
	{"ref-code", func(b *v4Block) { b.ref[len(b.ref)/2] = 0xFF }},
	{"unconsumed", func(b *v4Block) { b.pcx = append(b.pcx, 0) }},
}

// damagedPayload reframes every block of tr's encoding, applying
// damage[blk] to the planes of each block it names.
func damagedPayload(t *testing.T, tr *Trace, damage map[int]func(b *v4Block)) []byte {
	t.Helper()
	var out []byte
	for blk, off := range tr.blocks {
		b, _, err := parseV4Block(tr.enc, off, blockRecords(tr.n, blk))
		if err != nil {
			t.Fatal(err)
		}
		planes := []*[]byte{&b.flags, &b.ops, &b.pcb, &b.nxb, &b.lat, &b.pcx, &b.nxx, &b.ref, &b.refx, &b.val, &b.valx}
		for _, p := range planes {
			*p = bytes.Clone(*p)
		}
		if mod := damage[blk]; mod != nil {
			mod(&b)
		}
		for _, l := range [7]int{len(b.lat), len(b.pcx), len(b.nxx), len(b.ref), len(b.refx), len(b.val), len(b.valx)} {
			out = binary.AppendUvarint(out, uint64(l))
		}
		for _, p := range planes {
			out = append(out, *p...)
		}
	}
	return out
}

// bombContainer builds a version-4 container of blocks full blocks
// that each decode cleanly — every record reads three inputs and writes
// two outputs of the one dictionary location, each value a zero word on
// the valx plane — and inflate ~1000:1, so the payload trips the
// decompression-bomb bound in its fifth block.  damaged names a block
// whose ref plane is broken instead.
func bombContainer(t *testing.T, blocks, damaged int) []byte {
	t.Helper()
	var payload []byte
	for blk := range blocks {
		var b v4Block
		b.flags = bytes.Repeat([]byte{3<<flagNInShift | 2<<flagNOutShift | flagV4LatImplied}, BlockLen)
		b.ops = bytes.Repeat([]byte{byte(isa.ADD)}, BlockLen)
		b.pcb = make([]byte, BlockLen)
		b.nxb = make([]byte, BlockLen)
		b.ref = make([]byte, maxRefsPerRecord*BlockLen)
		b.val = bytes.Repeat([]byte{v4ByteEscape}, maxRefsPerRecord*BlockLen)
		b.valx = make([]byte, 8*maxRefsPerRecord*BlockLen)
		if blk == damaged {
			b.ref[7] = 0xFF
		}
		for _, l := range [7]int{0, 0, 0, len(b.ref), 0, len(b.val), len(b.valx)} {
			payload = binary.AppendUvarint(payload, uint64(l))
		}
		for _, p := range [][]byte{b.flags, b.ops, b.pcb, b.nxb, b.ref, b.val, b.valx} {
			payload = append(payload, p...)
		}
	}
	hdr := &Trace{n: uint64(blocks) * BlockLen, dict: []trace.Loc{trace.IntReg(1)}}
	return v4Container(t, hdr, payload)
}

// verifyCases returns the containers the parallel pass is held to the
// sequential one on: every frozen fixture, and a five-block recording
// intact, damaged one block and two blocks at a time, truncated, with
// trailing data, lying in its header, and as a decompression bomb.
func verifyCases(t *testing.T) []struct {
	name string
	data []byte
} {
	type tc = struct {
		name string
		data []byte
	}
	var cases []tc
	for _, fx := range fixtures {
		for _, v := range allVersions {
			cases = append(cases, tc{fmt.Sprintf("fixture %s v%d", fx.name, v), readFixture(t, fx.name, v)})
		}
	}
	tr := recordWorkload(t, "gcc", 4*BlockLen+1234)
	nb := len(tr.blocks)
	if nb != 5 {
		t.Fatalf("recording holds %d blocks, want 5", nb)
	}
	var whole bytes.Buffer
	if _, err := tr.WriteTo(&whole); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"intact", whole.Bytes()})
	for _, d := range v4Damages {
		for _, blk := range []int{0, 2, nb - 1} {
			cases = append(cases, tc{fmt.Sprintf("%s in block %d", d.name, blk),
				v4Container(t, tr, damagedPayload(t, tr, map[int]func(*v4Block){blk: d.mod}))})
		}
	}
	twoBlocks := func(b1 int, d1 v4Damage, b2 int, d2 v4Damage) {
		cases = append(cases, tc{fmt.Sprintf("%s in block %d, %s in block %d", d1.name, b1, d2.name, b2),
			v4Container(t, tr, damagedPayload(t, tr, map[int]func(*v4Block){b1: d1.mod, b2: d2.mod}))})
	}
	for _, d1 := range v4Damages {
		for _, d2 := range v4Damages {
			twoBlocks(1, d1, 2, d2)
		}
		twoBlocks(1, d1, 4, v4Damages[0])
	}
	for k := 1; k < 8; k++ {
		cut := whole.Len() * k / 8
		cases = append(cases, tc{fmt.Sprintf("container cut at %d/8", k), whole.Bytes()[:cut]})
	}
	payload := damagedPayload(t, tr, nil)
	for _, blk := range []int{nb - 2, nb - 1} {
		cut := tr.blocks[blk] + 100
		cases = append(cases, tc{fmt.Sprintf("payload cut in block %d", blk), v4Container(t, tr, payload[:cut])})
	}
	cases = append(cases,
		tc{"trailing container bytes", append(bytes.Clone(whole.Bytes()), "extra"...)},
		tc{"trailing payload bytes", v4Container(t, tr, append(bytes.Clone(payload), 0, 0, 0))},
		tc{"trailing payload bytes, damaged block", v4Container(t, tr,
			append(damagedPayload(t, tr, map[int]func(*v4Block){3: v4Damages[2].mod}), 0, 0, 0))},
	)
	lying := func(name string, mod func(h *Trace)) {
		h := *tr
		mod(&h)
		cases = append(cases, tc{name, v4Container(t, &h, payload)})
	}
	lying("wrong digest", func(h *Trace) { h.sum[5] ^= 1 })
	lying("one record more", func(h *Trace) { h.n++ })
	lying("one record fewer", func(h *Trace) { h.n-- })
	lying("one block fewer", func(h *Trace) { h.n -= BlockLen })
	lying("wrong canonical size", func(h *Trace) { h.canonical++ })
	cases = append(cases,
		tc{"decompression bomb", bombContainer(t, 8, -1)},
		tc{"decompression bomb behind a damaged block", bombContainer(t, 8, 1)},
		tc{"decompression bomb right behind a damaged block", bombContainer(t, 8, 3)},
	)
	return cases
}

// TestParallelLoadMatchesSequential holds the parallel verifying pass to
// the sequential reference: under GOMAXPROCS 1, 2 and 8, Load, Scan and
// SpoolToDir (streaming and keeping) must establish the reference's
// identity or fail with its error, byte for byte; a refused body must
// leave no file behind; and no call may leave a goroutine running.
func TestParallelLoadMatchesSequential(t *testing.T) {
	cases := verifyCases(t)
	// The cases must reach the paths they are named for: the bomb bound,
	// and a worker's error in a block just ahead of one the caller
	// refuses to frame.
	for _, c := range cases {
		want := sequentialVerify(c.data)
		if (c.name == "decompression bomb") != strings.HasSuffix(want, "decompression bomb") ||
			(c.name == "ref-code in block 1, op in block 2" || c.name == "decompression bomb right behind a damaged block") &&
				!strings.Contains(want, "ref plane") {
			t.Fatalf("%s: the sequential pass gives %s", c.name, want)
		}
	}
	dir := t.TempDir()
	checkJoined := joinChecker(t)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				want := sequentialVerify(c.data)
				check := func(what, got string) {
					t.Helper()
					if got != want {
						t.Errorf("%s: %s gives\n\t%s\nthe sequential pass\n\t%s", c.name, what, got, want)
					}
				}

				before := runtime.NumGoroutine()
				tr, err := Load(bytes.NewReader(c.data))
				checkJoined(c.name+": Load", before)
				if err != nil {
					check("Load", identity("", 0, 0, err))
				} else {
					check("Load", identity(tr.Digest(), tr.Records(), int64(tr.CanonicalBytes()), nil))
				}

				before = runtime.NumGoroutine()
				info, err := Scan(bytes.NewReader(c.data))
				checkJoined(c.name+": Scan", before)
				check("Scan", identity(info.Digest, info.Records, info.CanonicalBytes, err))

				for _, keepMax := range []int64{0, 1 << 40} {
					what := fmt.Sprintf("SpoolToDir (keepMax %d)", keepMax)
					before = runtime.NumGoroutine()
					sp, kept, err := SpoolToDir(bytes.NewReader(c.data), dir, keepMax)
					checkJoined(c.name+": "+what, before)
					check(what, identity(sp.Digest, sp.Records, sp.CanonicalBytes, err))
					ents, rerr := os.ReadDir(dir)
					if rerr != nil {
						t.Fatal(rerr)
					}
					switch {
					case err != nil && len(ents) != 0:
						t.Errorf("%s: %s refused the body but left %s behind", c.name, what, ents[0].Name())
					case err == nil && (len(ents) != 1 || ents[0].Name() != DigestFileName(sp.Digest)):
						t.Errorf("%s: %s accepted the body but left %d entries", c.name, what, len(ents))
					case err == nil && kept != nil && kept.Digest() != sp.Digest:
						t.Errorf("%s: %s kept %s for %s", c.name, what, kept.Digest(), sp.Digest)
					}
					if err == nil {
						if err := os.Remove(sp.Path); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}
