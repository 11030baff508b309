//go:build unix

package atomicio_test

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"randfill/internal/atomicio"
)

// TestWriteFileToFIFO writes to a FIFO, the non-regular destination that
// -out /dev/null is an instance of: the data must reach the reader and the
// FIFO must still be a FIFO afterwards, not a regular file renamed over it.
func TestWriteFileToFIFO(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "out.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	want := []byte("{\"ok\":true}\n")
	got := make(chan []byte, 1)
	go func() {
		// Opening for read blocks until WriteFile opens the write end.
		r, err := os.Open(fifo)
		if err != nil {
			got <- nil
			return
		}
		b, err := io.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b = nil
		}
		got <- b
	}()
	if err := atomicio.WriteFile(fifo, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Lstat(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("destination mode %v after write, want a named pipe", fi.Mode())
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("destination permissions %v, want the FIFO's own 0600", fi.Mode().Perm())
	}
	if b := <-got; string(b) != string(want) {
		t.Fatalf("reader got %q, want %q", b, want)
	}
	leftOver(t, dir, "out.fifo")
}
