package store

import (
	"fmt"
	"sync"
	"testing"
)

func TestMarkReportDedups(t *testing.T) {
	s := New()
	if !ingestMarked(s, "app", "r1") {
		t.Fatal("first mark must be new")
	}
	if ingestMarked(s, "app", "r1") {
		t.Fatal("second mark must report a duplicate")
	}
	if !s.ReportSeen("app", "r1") {
		t.Fatal("ReportSeen lost the mark")
	}
	// Windows are per-application: the same ID under another app is new.
	if !ingestMarked(s, "other-app", "r1") {
		t.Fatal("dedup windows must not be shared across apps")
	}
	// Empty IDs (legacy senders without dedup support) are never deduped.
	if !ingestMarked(s, "app", "") || !ingestMarked(s, "app", "") {
		t.Fatal("empty ReportIDs must always pass")
	}
	if s.ReportSeen("app", "") {
		t.Fatal("empty ReportID must not be recorded")
	}
}

func TestMarkReportWindowEvictsOldest(t *testing.T) {
	s := New()
	for i := 0; i < reportWindowSize+1; i++ {
		if !ingestMarked(s, "app", fmt.Sprintf("r%d", i)) {
			t.Fatalf("r%d spuriously deduped", i)
		}
	}
	// r0 was evicted when r8192 entered; it reads as new again.
	if s.ReportSeen("app", "r0") {
		t.Fatal("oldest ID still in a full window")
	}
	// Re-marking r0 into the full window evicts the then-oldest r1.
	if !ingestMarked(s, "app", "r0") {
		t.Fatal("evicted ID must be acceptable again")
	}
	if s.ReportSeen("app", "r1") {
		t.Fatal("r1 should have been evicted by r0's re-entry")
	}
	// r2 survived both evictions and must still dedup.
	if ingestMarked(s, "app", "r2") {
		t.Fatal("recent ID evicted too early")
	}
}

func TestDedupWindowSurvivesSnapshotRestore(t *testing.T) {
	s := New()
	ingestMarked(s, "app-a", "r1")
	ingestMarked(s, "app-a", "r2")
	ingestMarked(s, "app-b", "r1")
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ app, id string }{
		{"app-a", "r1"}, {"app-a", "r2"}, {"app-b", "r1"},
	} {
		if ingestMarked(restored, tc.app, tc.id) {
			t.Fatalf("replay of %s/%s accepted after restart", tc.app, tc.id)
		}
	}
	if !ingestMarked(restored, "app-a", "r3") {
		t.Fatal("fresh ID refused after restore")
	}
}

func TestMarkReportConcurrent(t *testing.T) {
	s := New()
	const goroutines, ids = 8, 200
	var wg sync.WaitGroup
	newCount := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				if ingestMarked(s, "app", fmt.Sprintf("r%d", i)) {
					newCount[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range newCount {
		total += n
	}
	// Every distinct ID is accepted exactly once across all racers.
	if total != ids {
		t.Fatalf("accepted %d, want %d", total, ids)
	}
}
