package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sor"
)

// backendFor materializes -data-dir the way StartNode materializes the
// Node.Data sord sets from it.
func backendFor(data string) sor.Storage {
	if data == "" {
		return sor.Memory()
	}
	return sor.Durable(data)
}

// TestSnapshotFlagIsGone: a data dir is snapshot + WAL, always; the
// pre-WAL -snapshot FILE flag is refused at parse time, alone or beside
// -data-dir, before anything is started.
func TestSnapshotFlagIsGone(t *testing.T) {
	for _, args := range [][]string{
		{"-snapshot", "sor.json"},
		{"-data-dir", "data", "-snapshot", "sor.json"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "not defined: -snapshot") {
			t.Fatalf("run(%q) = %v, want an undefined-flag error", args, err)
		}
	}
}

func TestStorageFlagsDefaultToMemory(t *testing.T) {
	backend := backendFor("")
	db, err := backend.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutUser(sor.User{ID: "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDataDirFlagIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sor-data")
	backend := backendFor(dir)
	db, err := backend.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutUser(sor.User{ID: "u1", Name: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot in data dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); err != nil {
		t.Fatalf("no wal dir in data dir: %v", err)
	}

	backend2 := backendFor(dir)
	db2, err := backend2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer backend2.Close()
	if u, err := db2.User("u1"); err != nil || u.Name != "Alice" {
		t.Fatalf("recovered user = %+v, %v", u, err)
	}
}
