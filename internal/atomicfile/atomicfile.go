// Package atomicfile replaces a file whole: the sketch writers of the
// command-line tools write through it.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write lets write fill a temporary file beside path, syncs it,
// and renames it over path, so a file that `adsserver -mmap` is serving
// is replaced, never changed in place or truncated under its mapping (a
// read past a truncated mapping is a SIGBUS), and a failed write — of the
// bytes, the sync or the close (full disk, NFS) — leaves path as it was
// and no temporary file behind.  As with an in-place write, a symlink's
// target is what gets replaced, and a replaced file keeps its mode.
func Write(path string, write func(io.Writer) (int64, error)) (int64, error) {
	target, mode := path, os.FileMode(0)
	if real, err := filepath.EvalSymlinks(path); err == nil {
		target = real
		if st, err := os.Stat(real); err == nil {
			mode = st.Mode().Perm()
		}
	}
	tmp := fmt.Sprintf("%s.%d.tmp", target, os.Getpid())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return 0, err
	}
	if mode != 0 {
		err = f.Chmod(mode)
	}
	n := int64(0)
	if err == nil {
		n, err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, target)
	}
	if err != nil {
		os.Remove(tmp)
		return n, fmt.Errorf("writing %s: %w", path, err)
	}
	return n, nil
}
