package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteSnapshotAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sor.json")
	s := New()
	if err := s.PutUser(User{ID: "u1", Token: "t"}); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFileAtomic(path, bytes.NewReader(data).WriteTo, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.User("u1"); err != nil {
		t.Fatal("user lost across snapshot")
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestLoadMissingFileGivesFreshStore(t *testing.T) {
	s, err := load(filepath.Join(t.TempDir(), "absent.json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Users()) != 0 {
		t.Fatal("fresh store not empty")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path, nil); err == nil {
		t.Fatal("corrupt snapshot must error")
	}
}
