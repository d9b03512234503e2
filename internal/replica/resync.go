package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"sor/internal/store"
	"sor/internal/wire"
)

// DefaultSnapChunkBytes is how much of the checkpoint file one SnapChunk
// carries unless the pull asks for less.
const DefaultSnapChunkBytes = 256 << 10

// resyncSession is one follower's in-flight transfer of the checkpoint
// file f, open since the session began: a checkpoint renamed over the
// path mid-transfer changes none of the bytes f serves.
type resyncSession struct {
	f      *os.File
	size   uint64
	walLSN uint64
}

// Close releases every open resync session. Call it when this node stops
// leading; a follower mid-transfer restarts its fetch on the new leader.
func (ld *Leader) Close() {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	for id := range ld.resyncs {
		ld.endResyncLocked(id)
	}
}

// endResyncLocked closes follower id's resync session, if it has one.
func (ld *Leader) endResyncLocked(id string) {
	if sess := ld.resyncs[id]; sess != nil {
		_ = sess.f.Close()
		delete(ld.resyncs, id)
	}
}

// HandleSnapPull serves one chunk of a resync session. Offset 0 opens
// (or reopens) the session: the leader pins the follower's retention at
// zero, opens the checkpoint installed in its WithStateDir directory,
// re-pins at the watermark in its header, and registers the follower so
// the TTL machinery owns the pin and the fd. Every chunk is a ReadAt from
// that fd; the final one (Done) closes it, and the pin lasts until the
// follower's first ReplPull or the TTL. Without a data dir or a
// checkpoint the pull is refused: no follower is compacted past before a
// checkpoint exists.
func (ld *Leader) HandleSnapPull(p *wire.SnapPull) (*wire.SnapChunk, error) {
	if ld.dir == "" {
		return nil, errors.New("replica: snapshot shipping needs the leader's data dir (WithStateDir)")
	}
	maxBytes := uint64(DefaultSnapChunkBytes) // under wire.MaxSnapChunkBytes
	if p.MaxBytes > 0 {
		maxBytes = min(maxBytes, uint64(p.MaxBytes))
	}

	if p.Offset == 0 {
		// Pin everything before opening: the tail past the checkpoint's
		// watermark cannot be truncated between the open and the re-pin.
		ld.log.Retain(p.FollowerID, 0)
		file, walLSN, size, err := store.OpenSnapshot(ld.dir)
		if err != nil {
			ld.log.ReleaseRetain(p.FollowerID)
			return nil, fmt.Errorf("replica: opening the checkpoint to ship: %w", err)
		}
		ld.log.Retain(p.FollowerID, walLSN)
		ld.mu.Lock()
		ld.endResyncLocked(p.FollowerID)
		ld.resyncs[p.FollowerID] = &resyncSession{f: file, size: uint64(size), walLSN: walLSN}
		// Register the follower at the image's watermark so liveness and
		// retention accounting treat the transfer like any other follower.
		ld.registerLocked(p.FollowerID, walLSN, ld.clock.Now())
		ld.persistLocked()
		ld.mu.Unlock()
		ld.resyncsStarted.Inc()
	}

	ld.mu.Lock()
	sess := ld.resyncs[p.FollowerID]
	if f, ok := ld.followers[p.FollowerID]; ok && sess != nil {
		f.lastSeen = ld.clock.Now() // a long transfer stays live
	}
	ld.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("replica: no resync session for %q (pull offset 0 first)", p.FollowerID)
	}
	if p.Offset > sess.size {
		return nil, fmt.Errorf("replica: resync offset %d past image size %d", p.Offset, sess.size)
	}
	data := make([]byte, min(sess.size-p.Offset, maxBytes))
	if _, err := sess.f.ReadAt(data, int64(p.Offset)); err != nil {
		return nil, fmt.Errorf("replica: reading the checkpoint at %d: %w", p.Offset, err)
	}
	chunk := &wire.SnapChunk{
		WalLSN:    sess.walLSN,
		TotalSize: sess.size,
		Offset:    p.Offset,
		Data:      data,
		Done:      p.Offset+uint64(len(data)) == sess.size,
	}
	if chunk.Done {
		// A session replaced or dropped meanwhile was closed by whoever did it.
		ld.mu.Lock()
		if ld.resyncs[p.FollowerID] == sess {
			ld.endResyncLocked(p.FollowerID)
		}
		ld.mu.Unlock()
	}
	ld.snapChunks.Inc()
	ld.snapBytes.Add(int64(len(chunk.Data)))
	return chunk, nil
}

// ResyncDataDir is the whole follower half of resync: stream the
// leader's checkpoint, chunk by chunk, into dir through
// store.InstallSnapshot, which validates it before replacing dir's stale
// snapshot and WAL. The caller must have closed the backend that owned
// dir, and reopens a fresh one afterwards; its log resumes at the
// returned watermark+1.
func ResyncDataDir(ctx context.Context, id string, send Sender, dir string) (uint64, error) {
	var walLSN uint64
	err := store.InstallSnapshot(dir, func(w io.Writer) (uint64, error) {
		var offset uint64
		for {
			resp, err := send.Send(ctx, &wire.SnapPull{FollowerID: id, Offset: offset})
			if err != nil {
				return 0, fmt.Errorf("replica: snap pull at %d: %w", offset, err)
			}
			chunk, ok := resp.(*wire.SnapChunk)
			if !ok {
				if ack, isAck := resp.(*wire.Ack); isAck {
					return 0, fmt.Errorf("replica: leader refused snap pull: %d %s", ack.Code, ack.Message)
				}
				return 0, fmt.Errorf("replica: unexpected %s reply to snap pull", resp.Type())
			}
			if offset == 0 {
				walLSN = chunk.WalLSN
			}
			if chunk.Offset != offset {
				return 0, fmt.Errorf("replica: asked for offset %d, got %d", offset, chunk.Offset)
			}
			if _, err := w.Write(chunk.Data); err != nil {
				return 0, err
			}
			offset += uint64(len(chunk.Data))
			if chunk.Done {
				return walLSN, nil // InstallSnapshot checks the file is whole
			}
			if len(chunk.Data) == 0 {
				return 0, errors.New("replica: empty snap chunk before Done")
			}
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
		}
	})
	return walLSN, err
}
