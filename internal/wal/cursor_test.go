package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// setChunkSize shrinks the cursor's pread size for one test, so records
// and zero tails straddle chunk edges.
func setChunkSize(t testing.TB, n int64) {
	old := chunkSize
	chunkSize = n
	t.Cleanup(func() { chunkSize = old })
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func corruptString(c *CorruptInfo) string {
	if c == nil {
		return "none"
	}
	return fmt.Sprintf("%d: %v", c.Offset, c.Err)
}

func scanString(s segScan, err error) string {
	return fmt.Sprintf("first=%d records=%d good=%d file=%d torn=%t corrupt=%s err=%s",
		s.FirstLSN, s.Records, s.GoodBytes, s.FileBytes, s.Torn, corruptString(s.Corrupt), errString(err))
}

func inspectString(infos []SegmentInfo, err error) string {
	var b bytes.Buffer
	for _, s := range infos {
		fmt.Fprintf(&b, "%s first=%d records=%d bytes=%d torn=%t@%d corrupt=%s\n",
			s.Name, s.FirstLSN, s.Records, s.Bytes, s.Torn, s.TornAt, corruptString(s.Corrupt))
	}
	fmt.Fprintf(&b, "err=%s", errString(err))
	return b.String()
}

// replayString renders one Replay pass: every delivered record, the
// stats and the error.
func replayString(replay func(string, uint64, func(uint64, []byte) error) (ReplayStats, error), dir string, after uint64) string {
	var b bytes.Buffer
	stats, err := replay(dir, after, func(lsn uint64, payload []byte) error {
		fmt.Fprintf(&b, "%d:%x\n", lsn, payload)
		return nil
	})
	fmt.Fprintf(&b, "stats=%+v err=%s", stats, errString(err))
	return b.String()
}

// matchOracle checks scanSegment, Replay and Inspect against the
// whole-file walk for the segment directory dir.
func matchOracle(t *testing.T, dir string, afters ...uint64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		got, want := scanString(scanSegment(seg.path)), scanString(oracleScanSegment(seg.path))
		if got != want {
			t.Errorf("chunk %d: scanSegment(%s)\n got %s\nwant %s", chunkSize, seg.path, got, want)
		}
	}
	if got, want := inspectString(Inspect(dir)), inspectString(oracleInspect(dir)); got != want {
		t.Errorf("chunk %d: Inspect\n got %s\nwant %s", chunkSize, got, want)
	}
	for _, after := range afters {
		if got, want := replayString(Replay, dir, after), replayString(oracleReplay, dir, after); got != want {
			t.Errorf("chunk %d: Replay after %d\n got %s\nwant %s", chunkSize, after, got, want)
		}
	}
}

// TestReadFromMatchesOracle is the differential test of the cursor
// reader: random segment and record sizes (oversize records that get a
// segment of their own included), random batch limits, two followers
// whose acks move up and down, and truncation between pulls. Every pull —
// resumed at the follower's stored position or not — must return what
// the whole-file walk returns, payload for payload and error for error,
// and Replay and Inspect must match the walk over the resulting
// directory.
func TestReadFromMatchesOracle(t *testing.T) {
	resumed := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chunk := []int64{1, 7, 64, 300, 64 << 10}[rng.Intn(5)]
		segBytes := int64(64 + rng.Intn(2048))
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			setChunkSize(t, chunk)
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var enqueued [][]byte // LSN i+1 holds enqueued[i]
			type follower struct {
				id  string
				ack uint64
				pos Pos
			}
			fs := [2]follower{{id: "f1"}, {id: "f2"}}
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(20); {
				case r < 8:
					for n := 1 + rng.Intn(4); n > 0; n-- {
						size := 1 + rng.Intn(200)
						if rng.Intn(40) == 0 {
							size = int(segBytes) + rng.Intn(100) // a segment of its own
						}
						p := make([]byte, size)
						rng.Read(p)
						lsn, err := l.Enqueue(p)
						if err != nil {
							t.Fatal(err)
						}
						enqueued = append(enqueued, p)
						if lsn != uint64(len(enqueued)) {
							t.Fatalf("enqueue landed at %d, want %d", lsn, len(enqueued))
						}
					}
				case r < 10:
					if err := l.TruncateThrough(uint64(rng.Intn(len(enqueued) + 1))); err != nil {
						t.Fatal(err)
					}
				default:
					f := &fs[rng.Intn(len(fs))]
					switch rng.Intn(8) {
					case 0: // a crash lost the follower's unsynced tail
						f.ack = uint64(rng.Intn(int(f.ack) + 1))
					case 1: // anywhere, up or down
						f.ack = uint64(rng.Intn(len(enqueued) + 1))
					}
					if rng.Intn(8) == 0 {
						l.ReleaseRetain(f.id)
					} else {
						l.Retain(f.id, f.ack)
					}
					maxRecords, maxBytes := rng.Intn(9), int64(rng.Intn(600))
					if f.pos.seg != 0 && f.pos.lsn == f.ack+1 {
						resumed++
					}
					got, pos, err := l.ReadFrom(f.pos, f.ack, maxRecords, maxBytes)
					want, werr := oracleReadAfter(l, f.ack, maxRecords, maxBytes)
					plain, perr := l.ReadAfter(f.ack, maxRecords, maxBytes)
					if errString(err) != errString(werr) || errString(perr) != errString(werr) {
						t.Fatalf("step %d after %d: errors ReadFrom %v, ReadAfter %v, oracle %v", step, f.ack, err, perr, werr)
					}
					if len(got) != len(want) || len(plain) != len(want) {
						t.Fatalf("step %d after %d: %d records (%d without position), oracle %d", step, f.ack, len(got), len(plain), len(want))
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) || !bytes.Equal(plain[i], want[i]) || !bytes.Equal(want[i], enqueued[f.ack+uint64(i)]) {
							t.Fatalf("step %d: LSN %d differs from the oracle or from what was enqueued", step, f.ack+uint64(i)+1)
						}
					}
					if errors.Is(err, ErrCompacted) {
						f.ack, f.pos = uint64(len(enqueued)), Pos{} // resynced to the head
						continue
					}
					f.ack, f.pos = f.ack+uint64(len(got)), pos
				}
			}
			matchOracle(t, dir, 0, uint64(rng.Intn(len(enqueued)+1)), uint64(len(enqueued)))
		})
	}
	if resumed < 500 {
		t.Fatalf("only %d pulls resumed at a stored position; the test no longer exercises the cursor", resumed)
	}
}

// tailPullCost builds a log whose segments are segBytes, fills 256 KiB
// of the live one, catches a follower up, then measures k-record pulls
// resumed at the follower's position: mean bytes allocated and bytes
// pread per pull.
func tailPullCost(t testing.TB, segBytes int64, k int) (alloc, read float64) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 200)
	for n := int64(0); n < 256<<10; n += recordSize(payload) {
		if _, err := l.Enqueue(payload); err != nil {
			t.Fatal(err)
		}
	}
	ack := l.LastLSN()
	_, pos, err := l.ReadFrom(Pos{}, ack-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	read0 := l.readBytes.Load()
	for i := 0; i < rounds; i++ {
		for j := 0; j < k; j++ {
			if _, err := l.Enqueue(payload); err != nil {
				t.Fatal(err)
			}
		}
		recs, next, err := l.ReadFrom(pos, ack, 0, 0)
		if err != nil || len(recs) != k {
			t.Fatalf("pull %d: %d records, %v; want %d", i, len(recs), err, k)
		}
		ack, pos = ack+uint64(k), next
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds, float64(l.readBytes.Load()-read0) / rounds
}

// TestReadAfterTailCost is the cost gate of the cursor: a caught-up
// follower pulling k new records allocates and reads the same bytes
// (within 2×) whether the live segment is 1 MiB or 64 MiB, and reads no
// more than the records it ships.
func TestReadAfterTailCost(t *testing.T) {
	const k = 8
	alloc1, read1 := tailPullCost(t, 1<<20, k)
	alloc64, read64 := tailPullCost(t, 64<<20, k)
	t.Logf("per %d-record pull: 1 MiB segment %.0f B allocated, %.0f B read; 64 MiB segment %.0f B allocated, %.0f B read",
		k, alloc1, read1, alloc64, read64)
	if alloc64 > 2*alloc1 || read64 > 2*read1 {
		t.Errorf("pull cost grows with the segment: 64 MiB costs %.0f B allocated / %.0f B read, 1 MiB %.0f / %.0f", alloc64, read64, alloc1, read1)
	}
	if shipped := float64(int64(k) * recordSize(make([]byte, 200))); read1 > shipped || read64 > shipped {
		t.Errorf("a pull reads %.0f / %.0f B for %.0f B of records", read1, read64, shipped)
	}
}
