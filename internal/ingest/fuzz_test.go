package ingest

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/tracefile"
)

// FuzzIngestCSV throws arbitrary bytes at the ingest path of both
// mappers, CSV and pctext — malformed rows and listings, huge fields,
// binary garbage, valid and truncated gzip — in both strict and lenient
// mode.  Ingest must never panic, the invariants between stats and the
// produced trace must hold on every input, and an accepted trace must
// write a container that loads back with the same digest.
func FuzzIngestCSV(f *testing.F) {
	f.Add([]byte("0x1000,r\n0x2000,w\n"))
	f.Add([]byte("addr,op\n0x10,read\n0x20,write\n"))
	f.Add([]byte("not-an-address,r\n0x10,maybe\n,,,,\n"))
	f.Add([]byte("0x10," + strings.Repeat("x", 5000) + "\n"))
	f.Add([]byte(strings.Repeat("0", 5000) + ",r\n"))
	f.Add([]byte("\x1f\x8b\x00\x00garbage-after-magic"))
	f.Add([]byte{0x1f, 0x8b})
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write([]byte("0x1000,r\n0x2000,w\n0x3000,r\n"))
	w.Close()
	f.Add(gz.Bytes())
	f.Add(gz.Bytes()[:gz.Len()/2]) // truncated gzip member
	// pctext listings: the format's worked example, comments and blank
	// lines, floating-point registers, and malformed operands.
	f.Add([]byte("0x400100 ld 0x2000 -> r1\n0x400101 add r1 r2 -> r3\n0x400102 st r3 -> 0x2000\n"))
	f.Add([]byte("# listing\n\n100 fmul f1 f2 -> f3\n101 FADD f3 f3 -> f4\n"))
	f.Add([]byte("0x10 add r1 -> r2 -> r3\n0x11 nosuchop\n0x12\nzz add r1 -> r2\n0x13 add r99 -> 0xffffffffffffffffff\n"))

	mappers := []func() (Mapper, error){
		func() (Mapper, error) { return NewCSV(CSVLayout{AddrCol: 0, OpCol: 1, PCCol: -1}) },
		func() (Mapper, error) { return NewPCText(), nil },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mapper := range mappers {
			for _, lenient := range []bool{false, true} {
				m, err := mapper()
				if err != nil {
					t.Fatal(err)
				}
				opt := Options{Lenient: lenient, MaxLineBytes: 4 << 10, MaxRecords: 1 << 16}
				tr, st, err := Ingest(bytes.NewReader(data), m, opt)
				if err != nil {
					if lenient {
						// Lenient mode only surfaces transport errors; they
						// must carry the format context.
						if !strings.Contains(err.Error(), "ingest("+m.Name()+")") {
							t.Fatalf("unlabelled error: %v", err)
						}
					}
					continue
				}
				if tr == nil {
					t.Fatal("nil trace without error")
				}
				if tr.Records() != st.Records {
					t.Fatalf("%s: trace has %d records, stats say %d", m.Name(), tr.Records(), st.Records)
				}
				if st.Records+st.Rejected > st.Lines {
					t.Fatalf("%s: inconsistent stats: %+v", m.Name(), st)
				}
				if !lenient && st.Rejected != 0 {
					t.Fatalf("%s: strict mode rejected silently: %+v", m.Name(), st)
				}
				var buf bytes.Buffer
				if _, err := tr.WriteTo(&buf); err != nil {
					t.Fatalf("%s: writing the ingested trace: %v", m.Name(), err)
				}
				back, err := tracefile.Load(&buf)
				if err != nil {
					t.Fatalf("%s: ingested trace does not load back: %v", m.Name(), err)
				}
				if back.Digest() != tr.Digest() {
					t.Fatalf("%s: ingested trace loads back as %s, was %s", m.Name(), back.Digest(), tr.Digest())
				}
			}
		}
	})
}
