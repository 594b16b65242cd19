package tracefile

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// addContainerSeeds seeds a container fuzz target with the frozen
// fixtures in all four container versions, plus truncations and header
// corruptions of each.
func addContainerSeeds(f *testing.F) {
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
}

// FuzzTraceReader hardens the trace decoder against untrusted input:
// cmd/tlrserve parses client uploads with exactly this code, so no byte
// sequence may panic it, loop it forever, or let a malformed file
// masquerade as a valid trace.  Accepted inputs must satisfy the decoder
// invariants; Load and Scan must reject whatever the streaming Reader
// rejects; a loaded trace's Cursor must replay exactly the records the
// streaming Reader delivered (a version-4 payload is kept as it was
// read, so this pins the adopted encoding to the streamed one); Scan
// must agree on its identity; and Load must round-trip to an identical,
// identically digested trace.
func FuzzTraceReader(f *testing.F) {
	addContainerSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Streaming decode: every accepted record must satisfy the Exec
		// invariants the engines rely on.
		var streamed []trace.Exec
		streamErr := r.ForEach(func(e *trace.Exec) bool {
			if !e.Op.Valid() {
				t.Fatalf("record %d: invalid op %d accepted", len(streamed), e.Op)
			}
			if int(e.NIn) > len(e.In) || int(e.NOut) > len(e.Out) {
				t.Fatalf("record %d: ref counts %d/%d out of range", len(streamed), e.NIn, e.NOut)
			}
			streamed = append(streamed, *e)
			return true
		})
		if streamErr != nil && streamErr == io.EOF {
			t.Fatal("ForEach leaked io.EOF")
		}

		// Load path: anything it accepts must replay what the stream
		// delivered and round-trip bit-exactly, and whatever the stream
		// rejects, Load and Scan must reject too.
		loaded, err := Load(bytes.NewReader(data))
		if streamErr != nil {
			if err == nil {
				t.Fatalf("Load accepted what streaming rejects: %v", streamErr)
			}
			if _, err := Scan(bytes.NewReader(data)); err == nil {
				t.Fatalf("Scan accepted what streaming rejects: %v", streamErr)
			}
		}
		if err != nil {
			return
		}
		if loaded.Records() != uint64(len(streamed)) {
			t.Fatalf("Load accepted %d records but streaming saw %d", loaded.Records(), len(streamed))
		}
		cur := loaded.Cursor()
		var e trace.Exec
		for i := range streamed {
			if err := cur.Next(&e); err != nil {
				t.Fatalf("cursor record %d: %v", i, err)
			}
			if normalize(e) != normalize(streamed[i]) {
				t.Fatalf("record %d: cursor replays %+v, stream delivered %+v", i, e, streamed[i])
			}
		}
		if err := cur.Next(&e); err != io.EOF {
			t.Fatalf("cursor past %d records: %v, want io.EOF", len(streamed), err)
		}
		cur.Close()

		info, err := Scan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Load accepted what Scan rejects: %v", err)
		}
		if info.Digest != loaded.Digest() || info.Records != loaded.Records() ||
			info.CanonicalBytes != int64(loaded.CanonicalBytes()) {
			t.Fatalf("Scan reads %s/%d/%d, Load %s/%d/%d", info.Digest, info.Records, info.CanonicalBytes,
				loaded.Digest(), loaded.Records(), loaded.CanonicalBytes())
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

// FuzzSpoolToDir hardens the upload path of a disk store tier: an
// accepted body must install a digest-named file that Load reads back
// with the identity SpoolToDir reported (and that Load of the body
// itself gives), and a rejected body must leave the directory as it
// found it — no digest-named file, no temp file.  The keep bound is set
// at the body's declared v4 payload length, so a version-4 body must
// come back kept, with the spool's identity, a Cursor that replays what
// Load(body) replays, and no more bytes than the bound; re-spooling it
// with the bound one byte lower must keep nothing and report the same
// install.
func FuzzSpoolToDir(f *testing.F) {
	addContainerSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var keepMax int64
		var declaredV4 bool
		if rd, err := NewReader(bytes.NewReader(data)); err == nil && rd.version == Version4 {
			declaredV4, keepMax = true, int64(rd.rawLen)
		}
		dir := t.TempDir()
		info, kept, err := SpoolToDir(bytes.NewReader(data), dir, keepMax)
		ents, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if len(ents) != 0 {
				t.Fatalf("rejected upload (%v) left %s behind", err, ents[0].Name())
			}
			return
		}
		if len(ents) != 1 || ents[0].Name() != DigestFileName(info.Digest) {
			t.Fatalf("accepted upload left %d entries, want only %s", len(ents), DigestFileName(info.Digest))
		}
		back, err := OpenFile(info.Path)
		if err != nil {
			t.Fatalf("installed file does not load: %v", err)
		}
		if back.Digest() != info.Digest || back.Records() != info.Records ||
			int64(back.CanonicalBytes()) != info.CanonicalBytes {
			t.Fatalf("installed file loads as %s/%d/%d, spool reported %s/%d/%d",
				back.Digest(), back.Records(), back.CanonicalBytes(), info.Digest, info.Records, info.CanonicalBytes)
		}
		if fi, err := os.Stat(info.Path); err != nil || fi.Size() != info.FileBytes {
			t.Fatalf("installed file size %v (err %v), spool reported %d", fi, err, info.FileBytes)
		}
		direct, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("SpoolToDir accepted what Load rejects: %v", err)
		}
		if direct.Digest() != info.Digest || direct.Records() != info.Records {
			t.Fatalf("Load reads the body as %s/%d, spool as %s/%d", direct.Digest(), direct.Records(), info.Digest, info.Records)
		}

		if keepIt := declaredV4 && keepMax > 0; keepIt != (kept != nil) {
			t.Fatalf("kept=%v for a v4=%v body at keep bound %d", kept != nil, declaredV4, keepMax)
		}
		if kept == nil {
			return
		}
		again, notKept, err := SpoolToDir(bytes.NewReader(data), dir, keepMax-1)
		if err != nil || again != info || notKept != nil {
			t.Fatalf("re-spool under the bound: %+v kept=%v (%v), first spool %+v", again, notKept != nil, err, info)
		}
		if kept.Digest() != info.Digest || kept.Records() != info.Records ||
			int64(kept.CanonicalBytes()) != info.CanonicalBytes {
			t.Fatalf("kept trace is %s/%d/%d, spool reported %s/%d/%d",
				kept.Digest(), kept.Records(), kept.CanonicalBytes(), info.Digest, info.Records, info.CanonicalBytes)
		}
		if int64(kept.Bytes()) > keepMax {
			t.Fatalf("kept trace holds %d bytes, keep bound %d", kept.Bytes(), keepMax)
		}
		kc, dc := kept.Cursor(), direct.Cursor()
		defer kc.Close()
		defer dc.Close()
		var ke, de trace.Exec
		for i := uint64(0); ; i++ {
			kerr, derr := kc.Next(&ke), dc.Next(&de)
			if kerr != derr {
				t.Fatalf("record %d: kept cursor says %v, Load's %v", i, kerr, derr)
			}
			if kerr == io.EOF {
				break
			} else if kerr != nil {
				t.Fatalf("record %d: %v", i, kerr)
			}
			if normalize(ke) != normalize(de) {
				t.Fatalf("record %d: kept cursor replays %+v, Load's %+v", i, ke, de)
			}
		}
	})
}

// oracleRecorder is the Recorder as it was before recording went
// chunked and parallel: every canonical record appended to one buffer,
// which finalisation hashes whole, then decodes and transcodes to v4 on
// one goroutine.  FuzzRecorder holds Recorder to it.
type oracleRecorder struct {
	canon []byte
	n     uint64
	freq  trace.LocMap[uint64]
}

func (r *oracleRecorder) Write(e *trace.Exec) {
	r.canon = appendRecord(r.canon, e)
	for _, ref := range e.Inputs() {
		*r.freq.At(ref.Loc)++
	}
	for _, ref := range e.Outputs() {
		*r.freq.At(ref.Loc)++
	}
	r.n++
}

func (r *oracleRecorder) Trace() *Trace {
	dict := buildDict(&r.freq)
	v := newV4Encoder(dict, 0)
	var blocks []int
	var e trace.Exec
	off := 0
	for i := uint64(0); i < r.n; i++ {
		next, err := decodeRecord(r.canon, off, &e)
		if err != nil {
			panic("tracefile: Recorder holds an unencodable record: " + recErr(i, off, err).Error())
		}
		off = next
		if i%BlockLen == 0 {
			blocks = append(blocks, len(v.enc))
		}
		v.write(&e)
	}
	v.finish()
	return newTrace(v.enc, blocks, dict, r.n, len(r.canon), sha256.Sum256(r.canon))
}

// Shape bits of a FuzzRecorder stream.
const (
	genWideVals = 1 << iota // full 64-bit values only (else mixed magnitudes)
	genJumps                // arbitrary PCs and next PCs (else mostly sequential)
	genKind3                // also the undefined fourth location kind
	genSideEff              // side-effect records
	genMaxRefs              // every record carries 3 inputs and 2 outputs
	genOddLat               // latencies other than the op's
	genBadOp                // one record with an undefined op
	genBadOps               // two more, placed independently
)

// genRecords derives a record stream from FuzzRecorder's parameters: n
// records from a PRNG seeded with seed, their memory operands spread
// over spread+1 words (beyond DictCap, the dictionary's wide codes and
// literal locations come into play), shaped by the gen* bits.
func genRecords(seed int64, n int, spread uint16, shape uint8) []trace.Exec {
	rng := rand.New(rand.NewSource(seed))
	loc := func() trace.Loc {
		kinds := 3
		if shape&genKind3 != 0 {
			kinds = 4
		}
		switch rng.Intn(kinds) {
		case 0:
			return trace.IntReg(uint8(rng.Intn(isa.NumRegs)))
		case 1:
			return trace.FPReg(uint8(rng.Intn(isa.NumRegs)))
		case 2:
			return trace.Mem(uint64(rng.Intn(int(spread) + 1)))
		default:
			return trace.Loc(3<<62 | uint64(rng.Intn(int(spread)+1)))
		}
	}
	val := func() uint64 {
		if shape&genWideVals != 0 {
			return rng.Uint64()
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	recs := make([]trace.Exec, n)
	var pc uint64
	for i := range recs {
		e := &recs[i]
		e.Op = isa.Op(rng.Intn(isa.NumOps))
		e.Lat = latByOp[e.Op]
		if shape&genOddLat != 0 && rng.Intn(2) == 0 {
			e.Lat = uint8(rng.Intn(256))
		}
		e.SideEffect = shape&genSideEff != 0 && rng.Intn(8) == 0
		if shape&genJumps != 0 && rng.Intn(4) == 0 {
			pc = rng.Uint64()
		}
		e.PC = pc
		e.Next = pc + 1
		if shape&genJumps != 0 && rng.Intn(4) == 0 {
			e.Next = rng.Uint64()
		}
		pc = e.Next
		e.NIn, e.NOut = uint8(rng.Intn(len(e.In)+1)), uint8(rng.Intn(len(e.Out)+1))
		if shape&genMaxRefs != 0 {
			e.NIn, e.NOut = uint8(len(e.In)), uint8(len(e.Out))
		}
		for k := range e.Inputs() {
			e.In[k] = trace.Ref{Loc: loc(), Val: val()}
		}
		for k := range e.Outputs() {
			e.Out[k] = trace.Ref{Loc: loc(), Val: val()}
		}
	}
	for _, bad := range []uint8{genBadOp, genBadOps, genBadOps} {
		if shape&bad != 0 && n > 0 {
			recs[rng.Intn(n)].Op = isa.Op(255)
		}
	}
	return recs
}

// finishRecording records recs into rec and finalises it, returning the
// panic message instead when finalising panics.
func finishRecording(rec interface {
	Write(*trace.Exec)
	Trace() *Trace
}, recs []trace.Exec) (tr *Trace, panicked string) {
	for i := range recs {
		rec.Write(&recs[i])
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return rec.Trace(), ""
}

// hasKind3 reports whether any record references a location of the
// undefined kind 3.
func hasKind3(recs []trace.Exec) bool {
	for i := range recs {
		for _, refs := range [][]trace.Ref{recs[i].Inputs(), recs[i].Outputs()} {
			for _, r := range refs {
				if r.Loc>>62 == 3 {
					return true
				}
			}
		}
	}
	return false
}

// FuzzRecorder holds the chunked, parallel Recorder to the sequential
// single-buffer oracle on generated record streams: the v4 encoding
// (exactly sized), block offsets, dictionary, digest, canonical size and
// record count must be identical, an unencodable record — an undefined
// op or a location of the undefined kind 3 — must panic on the caller's
// goroutine with the oracle's message, and the Trace must replay like
// the oracle's and exactly the records written.
func FuzzRecorder(f *testing.F) {
	for _, n := range []int{0, 1, BlockLen - 1, BlockLen, BlockLen + 1, 3*BlockLen + 17} {
		f.Add(int64(n), uint16(n), uint16(64), uint8(0))
		f.Add(int64(n), uint16(n), uint16(4*DictCap), uint8(genWideVals|genJumps|genSideEff|genMaxRefs))
	}
	f.Add(int64(1), uint16(2*BlockLen+5), uint16(2*DictCap), uint8(genKind3|genOddLat))
	f.Add(int64(2), uint16(3*BlockLen), uint16(16), uint8(genBadOp))
	f.Add(int64(3), uint16(4*BlockLen-1), uint16(300), uint8(genBadOps|genJumps))
	f.Fuzz(func(t *testing.T, seed int64, n, spread uint16, shape uint8) {
		recs := genRecords(seed, int(n)%(5*BlockLen), spread, shape)
		want, wantPanic := finishRecording(&oracleRecorder{}, recs)
		got, gotPanic := finishRecording(NewRecorder(), recs)
		if gotPanic != wantPanic {
			t.Fatalf("Trace panics with %q, oracle with %q", gotPanic, wantPanic)
		}
		if hasKind3(recs) && gotPanic == "" {
			t.Fatal("a stream with a kind-3 location finalises without a panic")
		}
		if wantPanic != "" {
			return
		}
		if !bytes.Equal(got.enc, want.enc) {
			t.Fatalf("v4 encoding differs: %d bytes, oracle %d", len(got.enc), len(want.enc))
		}
		if cap(got.enc) != len(got.enc) {
			t.Fatalf("v4 encoding of %d bytes holds %d", len(got.enc), cap(got.enc))
		}
		if !slices.Equal(got.blocks, want.blocks) || !slices.Equal(got.dict, want.dict) {
			t.Fatalf("blocks %v dict %d entries, oracle blocks %v dict %d entries",
				got.blocks, len(got.dict), want.blocks, len(want.dict))
		}
		if got.Digest() != want.Digest() || got.sum != want.sum || got.CanonicalBytes() != want.CanonicalBytes() ||
			got.Records() != want.Records() || got.Records() != uint64(len(recs)) {
			t.Fatalf("identity %s/%d/%d, oracle %s/%d/%d (%d written)", got.Digest(), got.CanonicalBytes(), got.Records(),
				want.Digest(), want.CanonicalBytes(), want.Records(), len(recs))
		}
		gc, wc := got.Cursor(), want.Cursor()
		defer gc.Close()
		defer wc.Close()
		var ge, we trace.Exec
		for i := range len(recs) + 1 {
			gerr, werr := gc.Next(&ge), wc.Next(&we)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("record %d: cursor says %v, oracle's %v", i, gerr, werr)
			}
			if gerr != nil {
				if i < len(recs) {
					t.Fatalf("record %d: %v", i, gerr)
				}
				break
			}
			if normalize(ge) != normalize(we) {
				t.Fatalf("record %d: cursor replays %+v, oracle's %+v", i, ge, we)
			}
			if normalize(ge) != normalize(recs[i]) {
				t.Fatalf("record %d: cursor replays %+v, %+v was written", i, ge, recs[i])
			}
		}
	})
}
