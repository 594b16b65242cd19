package tracefile

import (
	"bytes"
	"errors"
	"testing"
)

func TestSpoolStoreWriteError(t *testing.T) {
	tr := recordWorkload(t, "li", 1_000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, _, err := SpoolToDir(bytes.NewReader(buf.Bytes()), t.TempDir()+"/missing", 0)
	if !errors.Is(err, ErrStoreWrite) {
		t.Fatalf("err = %v, want ErrStoreWrite", err)
	}
	// Invalid bytes are NOT store errors.
	_, _, err = SpoolToDir(bytes.NewReader([]byte("NOTATRACE")), t.TempDir(), 0)
	if err == nil || errors.Is(err, ErrStoreWrite) {
		t.Fatalf("bad-bytes err = %v, want a non-store error", err)
	}
}
