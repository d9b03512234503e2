package wire

import "fmt"

// MaxSnapChunkBytes bounds one SnapChunk's Data — snapshot shipping
// streams in chunks so a multi-megabyte snapshot never produces a frame
// near the transport's body bound.
const MaxSnapChunkBytes = 1 << 20

// SnapPull asks the leader for a slice of its installed checkpoint file.
// A follower that hit ErrNeedsResync (the leader compacted past its LSN)
// issues SnapPulls from Offset 0 until the leader reports Done, streams
// the bytes into its data directory, and rejoins WAL shipping at the
// checkpoint's watermark + 1. Offset 0 opens a resync session: the
// leader pins its WAL tail and opens the checkpoint file, and serves
// every later offset from that open file, so a checkpoint installed
// mid-transfer changes none of the bytes.
type SnapPull struct {
	// FollowerID names the requester; the leader keys the session and the
	// retention pin by it.
	FollowerID string
	// Offset is the byte offset into the checkpoint file to resume from.
	Offset uint64
	// MaxBytes bounds the reply chunk (0 = leader default, capped at
	// MaxSnapChunkBytes either way).
	MaxBytes int64
}

var _ Message = (*SnapPull)(nil)

// Type implements Message.
func (*SnapPull) Type() MsgType { return TypeSnapPull }

func (m *SnapPull) encodePayload(w *Writer) {
	w.PutString(m.FollowerID)
	w.PutUvarint(m.Offset)
	w.PutUvarint(uint64(m.MaxBytes))
}

func (m *SnapPull) decodePayload(r *Reader) {
	if m.FollowerID = r.String(); m.FollowerID == "" {
		r.Fail(fmt.Errorf("%w: empty follower id", ErrBadPayload))
	}
	m.Offset = r.Uvarint()
	maxBytes := r.Uvarint()
	if maxBytes > MaxSnapChunkBytes {
		r.Fail(fmt.Errorf("%w: snap pull max bytes %d", ErrBadPayload, maxBytes))
	}
	m.MaxBytes = int64(maxBytes)
}

// SnapChunk is the leader's reply to a SnapPull: a slice of the
// checkpoint file this follower's resync session holds open, plus enough
// metadata (total size, WAL watermark) for the follower to validate the
// whole file and resume pulling records at WalLSN+1.
type SnapChunk struct {
	// WalLSN is the watermark in the checkpoint's header: every WAL record
	// at or below it is folded into the image. It is constant across all
	// chunks of one session.
	WalLSN uint64
	// TotalSize is the checkpoint file's size in bytes.
	TotalSize uint64
	// Offset echoes the pull's offset; Data starts there.
	Offset uint64
	// Data is the image slice [Offset, Offset+len(Data)).
	Data []byte
	// Done reports that Offset+len(Data) == TotalSize — the follower has
	// the whole file and the leader has closed the session.
	Done bool
}

var _ Message = (*SnapChunk)(nil)

// Type implements Message.
func (*SnapChunk) Type() MsgType { return TypeSnapChunk }

func (m *SnapChunk) encodePayload(w *Writer) {
	w.PutUvarint(m.WalLSN)
	w.PutUvarint(m.TotalSize)
	w.PutUvarint(m.Offset)
	w.PutBytes(m.Data)
	w.PutBool(m.Done)
}

func (m *SnapChunk) decodePayload(r *Reader) {
	m.WalLSN, m.TotalSize, m.Offset = r.Uvarint(), r.Uvarint(), r.Uvarint()
	if m.Data = r.Bytes(); len(m.Data) > MaxSnapChunkBytes {
		r.Fail(fmt.Errorf("%w: snap chunk of %d bytes", ErrBadPayload, len(m.Data)))
	}
	if m.Done = r.Bool(); m.Offset+uint64(len(m.Data)) > m.TotalSize {
		r.Fail(fmt.Errorf("%w: snap chunk past total size", ErrBadPayload))
	}
}

// ClusterHello is the cluster tier's liveness and role probe. The router
// sends it to a member naming itself; the member replies with its own
// identity, current role, and applied LSN. A reply whose Role disagrees
// with the registry (a standby answering "leader" after a failover) is
// how the router discovers promotions without an operator editing the
// map file.
type ClusterHello struct {
	// Node is the sender's registered name.
	Node string
	// Role is the sender's current role: "router" on the probe,
	// "leader" or "replica" on the reply.
	Role string
	// AppliedLSN is the head of the member's log at reply time (0 on the
	// probe and for nodes without a durable log).
	AppliedLSN uint64
}

var _ Message = (*ClusterHello)(nil)

// Type implements Message.
func (*ClusterHello) Type() MsgType { return TypeClusterHello }

func (m *ClusterHello) encodePayload(w *Writer) {
	w.PutString(m.Node)
	w.PutString(m.Role)
	w.PutUvarint(m.AppliedLSN)
}

func (m *ClusterHello) decodePayload(r *Reader) {
	if m.Node = r.String(); m.Node == "" {
		r.Fail(fmt.Errorf("%w: empty cluster node name", ErrBadPayload))
	}
	m.Role, m.AppliedLSN = r.String(), r.Uvarint()
}
