package tracefile

import (
	"bytes"
	"io"
	"os"
	"testing"

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
// invariants; a loaded trace's Cursor must replay exactly the records
// the streaming Reader delivered (a version-4 payload is kept as it was
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
		// delivered and round-trip bit-exactly.
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if loaded.Records() != uint64(len(streamed)) || streamErr != nil {
			t.Fatalf("Load accepted %d records but streaming saw %d (err %v)",
				loaded.Records(), len(streamed), streamErr)
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
