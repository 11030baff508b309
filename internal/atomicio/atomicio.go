// Package atomicio writes result artifacts atomically: data lands in a
// temporary file in the destination directory, is fsynced, and is renamed
// over the destination in one step. A crash — SIGKILL, OOM, power loss —
// therefore leaves either the complete old file or the complete new file,
// never a truncated hybrid. Every result file the repository emits
// (BENCH.json, golden files, rftrace output, checkpoint shards) must go
// through this package; the rflint atomicwrite checker enforces it.
//
// The temp file is created in the destination's directory, not os.TempDir,
// because rename is only atomic within a filesystem.
//
// A destination that exists and is not a regular file or a directory — a
// device such as /dev/null, or a FIFO — is written in place instead:
// renaming over it would replace the device node itself, and such a
// destination has no old contents for atomicity to protect.
//
// Durability note: rename alone is atomic but not durable — after a power
// loss the directory entry may still point at the old file even though the
// new data blocks were fsynced. Commit therefore fsyncs the destination's
// parent directory after the rename, which is what persists the directory
// entry itself. Only after that fsync returns is the publish crash-durable;
// a failure there is reported as an error even though the new file is
// already visible to readers.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// File is an in-progress atomic write: an *os.File open on a temporary
// path next to the destination. Write the content, then Commit to publish
// it or Abort to discard it. Exactly one of Commit or Abort must be called;
// Abort after a successful Commit is a no-op.
type File struct {
	*os.File
	dest      string
	committed bool
	inPlace   bool // File is dest itself, a device or FIFO
}

// Create starts an atomic write of dest. The returned File's Write methods
// go to a temporary file in dest's directory, or to dest itself when it is
// a device or FIFO (see the package doc).
func Create(dest string) (*File, error) {
	if fi, err := os.Stat(dest); err == nil && !fi.Mode().IsRegular() && !fi.IsDir() {
		f, err := os.OpenFile(dest, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("atomicio: %w", err)
		}
		return &File{File: f, dest: dest, inPlace: true}, nil
	}
	dir := filepath.Dir(dest)
	f, err := os.CreateTemp(dir, "."+filepath.Base(dest)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: %w", err)
	}
	return &File{File: f, dest: dest}, nil
}

// Commit fsyncs the temporary file, closes it, and renames it over the
// destination. On any error the temporary file is removed and the
// destination is untouched.
func (f *File) Commit() error {
	if f.committed {
		return fmt.Errorf("atomicio: %s committed twice", f.dest)
	}
	if f.inPlace {
		// Devices and FIFOs have nothing to fsync or rename.
		f.committed = true
		if err := f.Close(); err != nil {
			return fmt.Errorf("atomicio: close %s: %w", f.dest, err)
		}
		return nil
	}
	if err := f.Sync(); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: sync %s: %w", f.dest, err)
	}
	if err := f.Close(); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: close %s: %w", f.dest, err)
	}
	if err := os.Rename(f.Name(), f.dest); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: publish %s: %w", f.dest, err)
	}
	f.committed = true
	// Fsync the directory so the rename itself survives a crash. A failure
	// here is reported but the data file is already complete and visible.
	if err := syncDir(filepath.Dir(f.dest)); err != nil {
		return fmt.Errorf("atomicio: sync dir of %s: %w", f.dest, err)
	}
	return nil
}

// Abort discards the temporary file. Safe to call after a failed Commit and
// a no-op after a successful one, so `defer f.Abort()` is the idiomatic
// cleanup.
func (f *File) Abort() {
	if f.committed {
		return
	}
	// Close/remove errors are unactionable during cleanup: the temp file is
	// dead either way and the destination was never touched.
	//lint:ignore errcheck-io abort of a temp file; destination is untouched either way
	f.Close()
	if f.inPlace {
		return
	}
	//lint:ignore errcheck-io abort of a temp file; destination is untouched either way
	os.Remove(f.Name())
}

// WriteFile atomically replaces dest with data, with perm applied to the
// published file. It is the drop-in replacement for os.WriteFile on result
// artifacts. A device or FIFO destination keeps its own mode.
func WriteFile(dest string, data []byte, perm os.FileMode) error {
	f, err := Create(dest)
	if err != nil {
		return err
	}
	defer f.Abort()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", dest, err)
	}
	if f.inPlace {
		return f.Commit()
	}
	if err := f.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", dest, err)
	}
	return f.Commit()
}

// dirHandle is the slice of *os.File syncDir needs; tests swap openDir to
// assert the open/sync/close discipline on the parent directory.
type dirHandle interface {
	Sync() error
	Close() error
}

// openDir opens a directory for fsync. It is a seam so tests can observe
// (and fail) the directory sync without a power-loss rig.
var openDir = func(dir string) (dirHandle, error) { return os.Open(dir) }

// syncDir fsyncs a directory to persist a rename within it: open the dir,
// fsync the handle, close it. Without this, the rename is atomic but not
// durable (see the package doc).
func syncDir(dir string) error {
	d, err := openDir(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
