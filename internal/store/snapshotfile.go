package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// writeFileAtomic installs data at path via temp file + fsync + rename,
// then fsyncs the directory so the rename itself survives a power cut.
// The fsync matters for the durable backend: snapshot installation is
// what licenses WAL truncation, so the bytes must be on disk before the
// rename lands.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".sor-snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Load restores a store from a snapshot file; a missing file yields a
// fresh, empty store (first boot).
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return New(), nil
		}
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return Restore(data)
}
