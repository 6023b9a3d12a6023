package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	for _, want := range []string{"first", "second, longer"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatalf("Write(%q): %v", want, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("file holds %q, want %q", got, want)
		}
	}
	assertOnly(t, dir, "a.txt")
}

func TestWriteErrorKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("failed write changed the target to %q", got)
	}
	assertOnly(t, dir, "a.txt")
}

func TestWriteMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "a.txt")
	if err := Write(path, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}

// assertOnly fails unless dir holds exactly the named file — no temp
// file may outlive a Write.
func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only %s", names, name)
	}
}
