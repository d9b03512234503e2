package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// shipLog opens a log with tiny segments so a handful of records spans
// several files, and appends n records "rec-%04d" (LSN i+1 holds rec-i).
func shipLog(t *testing.T, n int) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return l, dir
}

// oldestAvailable reports the lowest LSN still readable from the log.
func oldestAvailable(t *testing.T, l *Log) uint64 {
	t.Helper()
	for after := uint64(0); ; after++ {
		recs, err := l.ReadAfter(after, 1, 0)
		if err == nil {
			if len(recs) == 0 {
				t.Fatalf("log drained while probing oldest LSN (after=%d)", after)
			}
			return after + 1
		}
		if !errors.Is(err, ErrCompacted) {
			t.Fatalf("ReadAfter(%d): %v", after, err)
		}
	}
}

// TestRetainClampsTruncation pins the retention guard: TruncateThrough
// never removes a segment holding records above the slowest registered
// follower's applied LSN, whatever the checkpoint watermark says.
func TestRetainClampsTruncation(t *testing.T) {
	cases := []struct {
		name     string
		retained map[string]uint64
		truncate uint64
		// maxOldest: every LSN above the effective floor must survive, so
		// the oldest readable LSN must be at or below floor+1.
		maxOldest uint64
	}{
		{"no-followers", nil, 60, 61},
		{"one-follower-behind", map[string]uint64{"f1": 10}, 60, 11},
		{"slowest-wins", map[string]uint64{"f1": 10, "f2": 55}, 60, 11},
		{"follower-ahead-of-cut", map[string]uint64{"f1": 70}, 60, 61},
		{"floor-zero-holds-everything", map[string]uint64{"f1": 0}, 60, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := shipLog(t, 80)
			defer l.Close()
			for id, lsn := range tc.retained {
				l.Retain(id, lsn)
			}
			if err := l.TruncateThrough(tc.truncate); err != nil {
				t.Fatalf("TruncateThrough: %v", err)
			}
			oldest := oldestAvailable(t, l)
			if oldest > tc.maxOldest {
				t.Fatalf("oldest readable LSN %d, want <= %d: truncation crossed the retention floor", oldest, tc.maxOldest)
			}
			// Everything from the oldest survivor to the head must read
			// back intact.
			recs, err := l.ReadAfter(oldest-1, 0, 0)
			if err != nil {
				t.Fatalf("ReadAfter(%d): %v", oldest-1, err)
			}
			if want := 80 - int(oldest) + 1; len(recs) != want {
				t.Fatalf("read %d records from LSN %d, want %d", len(recs), oldest, want)
			}
			for i, rec := range recs {
				if want := fmt.Sprintf("rec-%04d", int(oldest)+i-1); string(rec) != want {
					t.Fatalf("record %d = %q, want %q", int(oldest)+i, rec, want)
				}
			}
		})
	}
}

// TestReleaseRetainUnblocksTruncation pins that dropping a follower's
// floor lets the next truncation advance.
func TestReleaseRetainUnblocksTruncation(t *testing.T) {
	l, _ := shipLog(t, 80)
	defer l.Close()
	l.Retain("f1", 5)
	if err := l.TruncateThrough(60); err != nil {
		t.Fatal(err)
	}
	if oldest := oldestAvailable(t, l); oldest > 6 {
		t.Fatalf("oldest %d with floor 5", oldest)
	}
	l.ReleaseRetain("f1")
	if err := l.TruncateThrough(60); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAfter(5, 1, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadAfter(5) after release+truncate: %v, want ErrCompacted", err)
	}
}

// TestReadAfterSegmentBoundary pins the segment-handoff contract: a
// bounded read that stops mid-log resumes exactly one LSN later across
// every segment boundary, with every payload intact — the shipper's
// no-torn-read guarantee at the file seam.
func TestReadAfterSegmentBoundary(t *testing.T) {
	const n = 80
	l, _ := shipLog(t, n)
	defer l.Close()
	for _, batch := range []int{1, 3, 7, n} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			var got []string
			after := uint64(0)
			for {
				recs, err := l.ReadAfter(after, batch, 0)
				if err != nil {
					t.Fatalf("ReadAfter(%d): %v", after, err)
				}
				if len(recs) == 0 {
					break
				}
				if len(recs) > batch {
					t.Fatalf("ReadAfter returned %d records, cap %d", len(recs), batch)
				}
				for _, r := range recs {
					got = append(got, string(r))
				}
				after += uint64(len(recs))
			}
			if len(got) != n {
				t.Fatalf("read %d records, want %d", len(got), n)
			}
			for i, g := range got {
				if want := fmt.Sprintf("rec-%04d", i); g != want {
					t.Fatalf("record %d = %q, want %q", i+1, g, want)
				}
			}
		})
	}
}

// TestReadAfterMaxBytes pins the byte budget: batches stop before the
// budget, except that the first record always ships (a record larger
// than the budget must not wedge the stream).
func TestReadAfterMaxBytes(t *testing.T) {
	l, _ := shipLog(t, 20)
	defer l.Close()
	recs, err := l.ReadAfter(0, 0, 20) // each payload is 8 bytes
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("20-byte budget shipped %d records, want 2", len(recs))
	}
	recs, err = l.ReadAfter(0, 0, 3) // budget below one record
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("tiny budget shipped %d records, want exactly 1", len(recs))
	}
}

// TestReadAfterCaughtUp pins that a reader at the head gets an empty,
// error-free batch.
func TestReadAfterCaughtUp(t *testing.T) {
	l, _ := shipLog(t, 5)
	defer l.Close()
	recs, err := l.ReadAfter(5, 0, 0)
	if err != nil || recs != nil {
		t.Fatalf("caught-up read = (%v, %v), want (nil, nil)", recs, err)
	}
	recs, err = l.ReadAfter(99, 0, 0)
	if err != nil || recs != nil {
		t.Fatalf("read past head = (%v, %v), want (nil, nil)", recs, err)
	}
}

// TestReadAfterRacingAppendsAndTruncation is the open-reader race:
// three goroutines Enqueue into 256-byte segments (a roll every few
// records), one checkpoints and truncates up to the slowest follower's
// acked floor, and two followers stream the log in small batches — one
// resuming every pull at its stored position, the other alternating that
// with position-less reads. Every payload shipped must be exactly what was
// enqueued at its LSN — a torn read, a gap, or a vanished segment above
// the floor all fail the test. Run with -race this also pins the locking.
func TestReadAfterRacingAppendsAndTruncation(t *testing.T) {
	const writers, perWriter = 3, 150
	const total = writers * perWriter
	l, _ := shipLog(t, 0)
	defer l.Close()
	followers := []string{"resume", "mixed"}
	for _, id := range followers {
		l.Retain(id, 0)
	}

	var mu sync.Mutex
	enqueued := make(map[uint64]string, total)
	shipped := make([]map[uint64]string, len(followers))

	stop := make(chan struct{})
	var truncator, workers sync.WaitGroup
	truncator.Add(1)
	go func() { // keeps cutting at the head watermark
		defer truncator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.TruncateThrough(l.LastLSN()); err != nil {
				t.Errorf("truncate: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < perWriter; i++ {
				p := fmt.Sprintf("w%d-%04d", w, i)
				lsn, err := l.Enqueue([]byte(p))
				if err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				mu.Lock()
				enqueued[lsn] = p
				mu.Unlock()
			}
		}(w)
	}
	for i, id := range followers {
		shipped[i] = make(map[uint64]string, total)
		workers.Add(1)
		go func(i int, id string) {
			defer workers.Done()
			var pos Pos
			for after, pull := uint64(0), 0; after < total; pull++ {
				var recs [][]byte
				var err error
				if id == "mixed" && pull%2 == 1 {
					recs, err = l.ReadAfter(after, 1+pull%7, 0)
					pos = Pos{}
				} else {
					recs, pos, err = l.ReadFrom(pos, after, 1+pull%7, 0)
				}
				if err != nil {
					t.Errorf("%s: ReadFrom(%d): %v", id, after, err)
					return
				}
				if len(recs) == 0 {
					runtime.Gosched()
					continue
				}
				for k, rec := range recs {
					shipped[i][after+uint64(k)+1] = string(rec)
				}
				after += uint64(len(recs))
				l.Retain(id, after) // ack: truncation may now pass here
			}
		}(i, id)
	}
	workers.Wait()
	close(stop)
	truncator.Wait()

	if len(enqueued) != total {
		t.Fatalf("%d records enqueued, want %d", len(enqueued), total)
	}
	for i, id := range followers {
		for lsn := uint64(1); lsn <= total; lsn++ {
			if got, want := shipped[i][lsn], enqueued[lsn]; got != want {
				t.Fatalf("%s: LSN %d shipped %q, enqueued %q", id, lsn, got, want)
			}
		}
	}
}
