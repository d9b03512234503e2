package wal

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkWALAppend contrasts the three sync policies at exactly 8
// concurrent writers. The acceptance bar: grouped fsync must beat
// per-record fsync by >= 5x, because one disk flush amortizes over every
// appender parked in the batch.
func BenchmarkWALAppend(b *testing.B) {
	const writers = 8
	payload := make([]byte, 256)
	for _, pol := range []SyncPolicy{SyncEach, SyncGrouped, SyncOS} {
		b.Run(fmt.Sprintf("sync=%s/writers=%d", pol, writers), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					n := b.N / writers
					if w < b.N%writers {
						n++
					}
					for i := 0; i < n; i++ {
						if _, err := l.Append(payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkReadAfterTail is a caught-up follower's pull: eight records
// land, and the follower reads them resuming at its stored position. The
// cost is per pull and must not depend on the live segment's size;
// read-B/op is what the cursor pread.
func BenchmarkReadAfterTail(b *testing.B) {
	for _, seg := range []int64{1 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("segment=%dMiB", seg>>20), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{SegmentBytes: seg})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 200)
			var pos Pos
			var ack uint64
			b.ReportAllocs()
			read0 := l.readBytes.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 8; j++ {
					if _, err := l.Enqueue(payload); err != nil {
						b.Fatal(err)
					}
				}
				recs, next, err := l.ReadFrom(pos, ack, 0, 0)
				if err != nil || len(recs) != 8 {
					b.Fatalf("pull: %d records, %v", len(recs), err)
				}
				ack, pos = ack+8, next
			}
			b.ReportMetric(float64(l.readBytes.Load()-read0)/float64(b.N), "read-B/op")
		})
	}
}
