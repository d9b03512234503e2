package store

// Race-enabled suite for the sharded tables. Meaningful under
// `go test -race`: it pins down that per-app upload buckets and per-task
// schedule buckets never lose writes, that sequence numbers stay globally
// unique and monotonic across buckets, and that Snapshot can run while
// writers race without tearing a table.

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendAndDrain races single and batched appenders for many
// apps against a continuous drainer, then checks the union of drained
// uploads: nothing lost, nothing duplicated, sequence numbers unique.
func TestConcurrentAppendAndDrain(t *testing.T) {
	const apps, perApp, batchEvery = 16, 50, 5
	s := New()
	at := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	stop := make(chan struct{})
	var drained []RawUpload
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			drained = append(drained, s.DrainUploads()...)
			select {
			case <-stop:
				drained = append(drained, s.DrainUploads()...)
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			appID := fmt.Sprintf("app-%d", a)
			for i := 0; i < perApp; i++ {
				body := []byte(fmt.Sprintf("%s/%d", appID, i))
				if i%batchEvery == 0 { // exercise the batched path too
					if _, err := s.Ingest(appID, [][]byte{body}, IngestOptions{Received: at}); err != nil {
						t.Error(err)
					}
				} else {
					ingestBody(s, appID, body, at)
				}
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	drainer.Wait()
	if len(drained) != apps*perApp {
		t.Fatalf("drained %d uploads, want %d", len(drained), apps*perApp)
	}
	seqs := make(map[int64]bool, len(drained))
	bodies := make(map[string]bool, len(drained))
	for _, up := range drained {
		if seqs[up.Seq] {
			t.Fatalf("duplicate sequence number %d", up.Seq)
		}
		seqs[up.Seq] = true
		body := string(up.Body)
		if bodies[body] {
			t.Fatalf("duplicate upload body %q", body)
		}
		bodies[body] = true
	}
	for a := 0; a < apps; a++ {
		for i := 0; i < perApp; i++ {
			if body := fmt.Sprintf("app-%d/%d", a, i); !bodies[body] {
				t.Fatalf("upload %q lost", body)
			}
		}
	}
}

// TestAppendUploadsSingleBucketOrder checks the batched append's contract:
// one app's burst lands contiguously in arrival order when drained.
func TestAppendUploadsSingleBucketOrder(t *testing.T) {
	s := New()
	at := time.Now()
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	res, err := s.Ingest("one-app", bodies, IngestOptions{Received: at})
	if err != nil {
		t.Fatal(err)
	}
	got := s.DrainUploads()
	if len(got) != 3 || got[2].Seq != res.LastSeq {
		t.Fatalf("drained %d uploads, last seq %d want %d", len(got), got[len(got)-1].Seq, res.LastSeq)
	}
	for i, up := range got {
		if string(up.Body) != string(bodies[i]) {
			t.Fatalf("position %d: got %q want %q", i, up.Body, bodies[i])
		}
		if up.AppID != "one-app" {
			t.Fatalf("position %d routed to app %q", i, up.AppID)
		}
	}
	if res, err := s.Ingest("one-app", nil, IngestOptions{Received: at}); err != nil || res.LastSeq != 0 {
		t.Fatalf("empty burst = %+v, %v, want LastSeq 0", res, err)
	}
}

// TestConcurrentScheduleReadWrite hammers PutSchedule/Schedule for many
// tasks from concurrent goroutines; every reader must see either nothing
// (ErrNotFound before the first put) or a complete row.
func TestConcurrentScheduleReadWrite(t *testing.T) {
	const tasks, rounds = 32, 30
	s := New()
	var wg sync.WaitGroup
	errs := make(chan error, 2*tasks)
	for k := 0; k < tasks; k++ {
		taskID := fmt.Sprintf("task-%d", k)
		wg.Add(2)
		go func(k int) { // writer: replaces the row repeatedly
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				row := ScheduleRow{TaskID: taskID, AppID: "app", UserID: fmt.Sprintf("u-%d", k)}
				for i := 0; i <= r; i++ {
					row.AtUnix = append(row.AtUnix, int64(k*1000+i))
				}
				if err := s.PutSchedule(row); err != nil {
					errs <- err
					return
				}
			}
		}(k)
		go func(k int) { // reader: any row seen must be self-consistent
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				row, err := s.Schedule(taskID)
				if err != nil {
					continue // not written yet
				}
				if row.TaskID != taskID || row.UserID != fmt.Sprintf("u-%d", k) {
					errs <- fmt.Errorf("torn row for %s: %+v", taskID, row)
					return
				}
				if len(row.AtUnix) > 0 && row.AtUnix[0] != int64(k*1000) {
					errs <- fmt.Errorf("foreign instants in %s: %v", taskID, row.AtUnix[:1])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSnapshotWhileWriting serializes the store while uploads, schedules
// and participations land concurrently. Every snapshot must be valid JSON
// whose tables are internally consistent, and the final snapshot must
// restore to a store holding everything written.
func TestSnapshotWhileWriting(t *testing.T) {
	const writers, perWriter = 8, 25
	s := New()
	at := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			appID := fmt.Sprintf("snap-app-%d", w)
			for i := 0; i < perWriter; i++ {
				ingestBody(s, appID, []byte(fmt.Sprintf("%d/%d", w, i)), at)
				taskID := fmt.Sprintf("snap-task-%d-%d", w, i)
				if err := s.PutSchedule(ScheduleRow{TaskID: taskID, AppID: appID, UserID: "u"}); err != nil {
					errs <- err
					return
				}
				if err := s.PutParticipation(Participation{
					TaskID: taskID, UserID: "u", AppID: appID, Budget: 1,
					Status: TaskRunning, Joined: at,
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // snapshotter racing the writers
		defer wg.Done()
		for i := 0; i < 10; i++ {
			data, err := s.Snapshot()
			if err != nil {
				errs <- err
				return
			}
			if _, err := Restore(data); err != nil {
				errs <- fmt.Errorf("snapshot %d does not restore: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.PendingUploads(); got != writers*perWriter {
		t.Fatalf("restored %d pending uploads, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			taskID := fmt.Sprintf("snap-task-%d-%d", w, i)
			if _, err := restored.Schedule(taskID); err != nil {
				t.Fatalf("schedule %s lost across restore: %v", taskID, err)
			}
			if _, err := restored.Participation(taskID); err != nil {
				t.Fatalf("participation %s lost across restore: %v", taskID, err)
			}
		}
	}
	// Restored sequence counter must continue past every restored seq.
	next := ingestBody(restored, "snap-app-0", []byte("after"), at)
	for _, up := range restored.DrainUploads() {
		if string(up.Body) != "after" && up.Seq >= next {
			t.Fatalf("restored seq %d not below continued seq %d", up.Seq, next)
		}
	}
}
