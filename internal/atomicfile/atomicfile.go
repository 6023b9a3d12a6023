// Package atomicfile replaces files atomically: the new contents go to
// a temp file in the target's directory, are fsynced, and the temp file
// is renamed over the target, so a crash mid-write never leaves a torn
// file behind.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with the bytes write produces. write
// streams into the temp file, so large contents are never buffered in
// memory. The temp file is fsynced once before the rename; the
// directory is not. On error the target is left untouched and the temp
// file is removed.
func Write(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
