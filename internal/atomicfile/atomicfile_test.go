package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWrite: a write replaces the file whole and reports its bytes; a
// write that fails leaves the old file as it was and no temporary file
// beside it.
func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	put := func(s string) func(io.Writer) (int64, error) {
		return func(w io.Writer) (int64, error) {
			n, err := io.WriteString(w, s)
			return int64(n), err
		}
	}
	if n, err := Write(path, put("first")); err != nil || n != 5 {
		t.Fatalf("Write: %d bytes, %v", n, err)
	}
	if n, err := Write(path, put("second")); err != nil || n != 6 {
		t.Fatalf("Write over: %d bytes, %v", n, err)
	}
	failed := errors.New("disk full")
	if _, err := Write(path, func(w io.Writer) (int64, error) {
		io.WriteString(w, "par")
		return 3, failed
	}); !errors.Is(err, failed) {
		t.Fatalf("failing Write: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Errorf("after a failed write: %q, %v; want the last good file", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files in the directory, want the target alone", len(entries))
	}
}
