package tracefile

// Frozen containers.  testdata holds each fixture stream in all four
// container versions, written by the version 1-4 writers before the
// package kept only the version-4 one.  They are the readers' ground
// truth: a round trip through a writer cannot catch a format change made
// to the writer and the reader together, so these files are never
// regenerated.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// allVersions lists every container version the readers accept.
var allVersions = []uint32{Version, Version2, Version3, Version4}

// fixtures are the frozen streams, each present as testdata/<name>.v<N>.trc
// for N = 1..4.
var fixtures = []struct {
	name    string
	records uint64
	digest  string
}{
	{"empty", 0, "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	// docs/FORMAT.md's worked example.
	{"example", 4, "sha256:66f9943f7be73f368d75f3e36a7c81864520e60225c6c2f64f9203d22b9d54af"},
	// 4,200 records of li: past a v2 index interval and a v3/v4 block.
	{"li4200", 4200, "sha256:ad545d9c43e81a0cfaa45ebca9a7aeeb78d7694a5e7f0c717c7c585b71547c60"},
}

// readFixture returns the bytes of one frozen container.
func readFixture(t testing.TB, name string, version uint32) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("%s.v%d.trc", name, version)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadFixture loads one frozen container into a Trace.
func loadFixture(t testing.TB, name string, version uint32) *Trace {
	t.Helper()
	tr, err := Load(bytes.NewReader(readFixture(t, name, version)))
	if err != nil {
		t.Fatalf("%s v%d: %v", name, version, err)
	}
	return tr
}

// unhex decodes the spaced hex dumps docs/FORMAT.md prints.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// exampleRecords are the four records of docs/FORMAT.md's worked example.
func exampleRecords() []trace.Exec {
	recs := make([]trace.Exec, 4)
	set := func(i int, pc, next uint64, op isa.Op) *trace.Exec {
		e := &recs[i]
		e.PC, e.Next, e.Op, e.Lat = pc, next, op, 1
		return e
	}
	set(0, 100, 101, isa.LDI).AddOut(trace.IntReg(1), 5)
	set(1, 101, 102, isa.FLDI).AddOut(trace.FPReg(1), math.Float64bits(math.Pi))
	e := set(2, 102, 103, isa.ADD)
	e.AddIn(trace.IntReg(1), 5)
	e.AddIn(trace.IntReg(1), 5)
	e.AddOut(trace.IntReg(3), 10)
	e = set(3, 103, 100, isa.BNE)
	e.AddIn(trace.IntReg(3), 10)
	e.AddIn(trace.IntReg(1), 5)
	return recs
}

// TestFormatWorkedExample: the example fixtures are byte for byte the
// containers docs/FORMAT.md spells out, and decode to its record table.
func TestFormatWorkedExample(t *testing.T) {
	const (
		magic     = "54 4C 52 54 52 41 43 45"
		canonical = `24 1B 01 64 01 05
			24 38 01 65 81 80 80 80 80 80 80 80 40 98 DA 90 A2 B5 BF C8 84 40
			26 01 01 66 01 05 01 05 03 0A
			02 22 01 67 64 03 0A 01 05`
		digest = "66f9943f7be73f368d75f3e36a7c81864520e60225c6c2f64f9203d22b9d54af"
	)
	if got := fmt.Sprintf("%s%x", DigestPrefix, sha256.Sum256(unhex(t, canonical))); got != fixtures[1].digest {
		t.Fatalf("the documented canonical stream digests to %s", got)
	}
	if want := unhex(t, magic+"01 00 00 00"+canonical); !bytes.Equal(readFixture(t, "example", Version), want) {
		t.Errorf("example.v1 differs from docs/FORMAT.md:\n got %x\nwant %x", readFixture(t, "example", Version), want)
	}
	v2 := magic + "02 00 00 00" + "04 00 00 00 00 00 00 00" + digest +
		"00 10 00 00" + "01 00 00 00" + "00 00 00 00 00 00 00 00" + canonical
	if want := unhex(t, v2); !bytes.Equal(readFixture(t, "example", Version2), want) {
		t.Errorf("example.v2 differs from docs/FORMAT.md:\n got %x\nwant %x", readFixture(t, "example", Version2), want)
	}

	// Versions 3 and 4: the documented prelude, then a flate frame that
	// inflates to the documented payload.
	for _, c := range []struct {
		version uint32
		rawLen  string
		payload string
	}{
		{Version3, "22", `07 64 1B C8 01 01 0A
			0E E4 38 05 B0 B4 A1 C4 EA FE 90 89 80 01
			07 E6 01 00 00 03 14
			06 C2 22 05 02 00`},
		{Version4, "2D", `00 00 00 07 00 07 08
			44 44 46 42
			1B 38 01 22
			C8 02 02 02
			02 02 02 05
			00 02 00 00 01 01 00
			0A FF 00 00 14 00 00
			18 2D 44 54 FB 21 09 40`},
	} {
		data := readFixture(t, "example", c.version)
		prelude := unhex(t, magic+fmt.Sprintf("0%d 00 00 00", c.version)+"04 00 00 00 00 00 00 00"+digest+
			"2F 00 00 00 00 00 00 00"+c.rawLen+" 00 00 00 00 00 00 00"+"03 00 00 00"+"04 0C 05")
		if !bytes.HasPrefix(data, prelude) {
			t.Errorf("example.v%d prelude differs from docs/FORMAT.md:\n got %x\nwant %x", c.version, data, prelude)
			continue
		}
		payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[len(prelude):])))
		if err != nil {
			t.Fatalf("example.v%d: inflating: %v", c.version, err)
		}
		if want := unhex(t, c.payload); !bytes.Equal(payload, want) {
			t.Errorf("example.v%d payload differs from docs/FORMAT.md:\n got %x\nwant %x", c.version, payload, want)
		}
	}

	want := exampleRecords()
	for _, version := range allVersions {
		cur := loadFixture(t, "example", version).Cursor()
		for i := range want {
			var e trace.Exec
			if err := cur.Next(&e); err != nil {
				t.Fatalf("v%d record %d: %v", version, i, err)
			}
			if normalize(e) != normalize(want[i]) {
				t.Errorf("v%d record %d:\n got %+v\nwant %+v", version, i, normalize(e), normalize(want[i]))
			}
		}
		cur.Close()
	}
}

// TestFixturesReadBack: every reader gives each fixture's recorded
// digest and record count in every version, and both write paths —
// SpoolToDir's install and Load(...).WriteTo — reproduce the version-4
// fixture byte for byte.
func TestFixturesReadBack(t *testing.T) {
	for _, fx := range fixtures {
		v4 := readFixture(t, fx.name, Version4)
		for _, version := range allVersions {
			name := fmt.Sprintf("%s.v%d", fx.name, version)
			data := readFixture(t, fx.name, version)

			tr, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: Load: %v", name, err)
			}
			if tr.Digest() != fx.digest || tr.Records() != fx.records {
				t.Errorf("%s: Load gives %s/%d", name, tr.Digest(), tr.Records())
			}

			s, err := NewFileStream(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: FileStream: %v", name, err)
			}
			h := newCanonicalHasher()
			var n uint64
			for {
				batch, err := s.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: FileStream: %v", name, err)
				}
				for i := range batch {
					h.write(&batch[i])
				}
				n += uint64(len(batch))
			}
			s.Close()
			if got := fmt.Sprintf("%s%x", DigestPrefix, h.sum()); got != fx.digest || n != fx.records {
				t.Errorf("%s: FileStream gives %s/%d", name, got, n)
			}

			info, err := Scan(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: Scan: %v", name, err)
			}
			if info.Digest != fx.digest || info.Records != fx.records || info.Version != version {
				t.Errorf("%s: Scan gives %+v", name, info)
			}

			spool, _, err := SpoolToDir(bytes.NewReader(data), t.TempDir(), 0)
			if err != nil {
				t.Fatalf("%s: SpoolToDir: %v", name, err)
			}
			if installed, err := os.ReadFile(spool.Path); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(installed, v4) {
				t.Errorf("%s: SpoolToDir installed %d bytes that differ from the v4 fixture", name, len(installed))
			}

			var out bytes.Buffer
			if _, err := tr.WriteTo(&out); err != nil {
				t.Fatalf("%s: WriteTo: %v", name, err)
			}
			if !bytes.Equal(out.Bytes(), v4) {
				t.Errorf("%s: Load(...).WriteTo wrote %d bytes that differ from the v4 fixture", name, out.Len())
			}
		}
	}
}
