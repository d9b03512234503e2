package wire

import "fmt"

// Location is a geographic coordinate used in messages.
type Location struct {
	Lat, Lon, Alt float64
}

func (w *Writer) putLocation(l Location) {
	w.PutFloat(l.Lat)
	w.PutFloat(l.Lon)
	w.PutFloat(l.Alt)
}

func (r *Reader) location() Location {
	return Location{Lat: r.Float(), Lon: r.Float(), Alt: r.Float()}
}

// Participate is sent by a phone after scanning a 2D barcode: it asks the
// sensing server to include the user in the current scheduling period.
type Participate struct {
	UserID string
	Token  string // uniquely identifies the mobile device
	AppID  string
	Loc    Location // claimed location, verified against the target place
	Budget int      // NBk: max measurements this user will take
	// LeaveAfterSec is how long the user expects to stay (0 = until the
	// period ends).
	LeaveAfterSec int64
}

var _ Message = (*Participate)(nil)

// Type implements Message.
func (*Participate) Type() MsgType { return TypeParticipate }

func (m *Participate) encodePayload(w *Writer) {
	w.PutString(m.UserID)
	w.PutString(m.Token)
	w.PutString(m.AppID)
	w.putLocation(m.Loc)
	w.PutVarint(int64(m.Budget))
	w.PutVarint(m.LeaveAfterSec)
}

func (m *Participate) decodePayload(r *Reader) {
	m.UserID, m.Token, m.AppID = r.String(), r.String(), r.String()
	m.Loc = r.location()
	budget := r.Varint()
	if budget < 0 || budget > 1<<20 {
		r.Fail(fmt.Errorf("%w: budget %d", ErrBadPayload, budget))
	}
	m.Budget = int(budget)
	m.LeaveAfterSec = r.Varint()
}

// Schedule carries one user's sensing schedule plus the Lua script that
// describes how to sense (the paper's "schedules along with the
// corresponding Lua scripts").
type Schedule struct {
	TaskID string
	AppID  string
	UserID string
	Script string  // Lua source
	AtUnix []int64 // measurement times (unix seconds)
}

var _ Message = (*Schedule)(nil)

// Type implements Message.
func (*Schedule) Type() MsgType { return TypeSchedule }

func (m *Schedule) encodePayload(w *Writer) {
	w.PutString(m.TaskID)
	w.PutString(m.AppID)
	w.PutString(m.UserID)
	w.PutString(m.Script)
	w.PutUvarint(uint64(len(m.AtUnix)))
	for _, t := range m.AtUnix {
		w.PutVarint(t)
	}
}

func (m *Schedule) decodePayload(r *Reader) {
	m.TaskID, m.AppID, m.UserID, m.Script = r.String(), r.String(), r.String(), r.String()
	m.AtUnix = make([]int64, r.sliceLen())
	for i := range m.AtUnix {
		m.AtUnix[i] = r.Varint()
	}
}

// SensorSample is one (t, Δt, d) tuple for a scalar sensor.
type SensorSample struct {
	AtUnixMilli int64
	WindowMilli int64
	Readings    []float64
}

// GeoPoint is a located reading for GPS traces.
type GeoPoint struct {
	AtUnixMilli   int64
	Lat, Lon, Alt float64
}

// SensorSeries groups one sensor's samples inside an upload.
type SensorSeries struct {
	Sensor  string // e.g. "temperature", "accelerometer"
	Samples []SensorSample
}

// DataUpload carries sensed data from the phone back to the server
// ("encodes data obtained from sensors in a message and sends it to a
// sensing server"). Scalar series and GPS points travel together.
type DataUpload struct {
	TaskID string
	AppID  string
	UserID string
	// ReportID uniquely identifies this report across retransmissions.
	// Devices assign it once when the report enters their outbox and keep
	// it across resends, so the server can ack a replayed report OK while
	// storing and budget-charging it exactly once. Empty means the sender
	// does not participate in deduplication (every arrival is stored).
	ReportID string
	Series   []SensorSeries
	Track    []GeoPoint
}

var _ Message = (*DataUpload)(nil)

// Type implements Message.
func (*DataUpload) Type() MsgType { return TypeDataUpload }

func (m *DataUpload) encodePayload(w *Writer) {
	w.PutString(m.TaskID)
	w.PutString(m.AppID)
	w.PutString(m.UserID)
	w.PutString(m.ReportID)
	w.PutUvarint(uint64(len(m.Series)))
	for _, s := range m.Series {
		w.PutString(s.Sensor)
		w.PutUvarint(uint64(len(s.Samples)))
		for _, smp := range s.Samples {
			w.PutVarint(smp.AtUnixMilli)
			w.PutVarint(smp.WindowMilli)
			w.PutUvarint(uint64(len(smp.Readings)))
			for _, v := range smp.Readings {
				w.PutFloat(v)
			}
		}
	}
	w.PutUvarint(uint64(len(m.Track)))
	for _, p := range m.Track {
		w.PutVarint(p.AtUnixMilli)
		w.PutFloat(p.Lat)
		w.PutFloat(p.Lon)
		w.PutFloat(p.Alt)
	}
}

// decodePayload decodes into m's existing slices and keeps each string
// field whose bytes are unchanged (see DecodeUpload); a fresh message
// decodes exactly as with make and String.
func (m *DataUpload) decodePayload(r *Reader) {
	m.TaskID, m.AppID = r.reuseString(m.TaskID), r.reuseString(m.AppID)
	m.UserID, m.ReportID = r.reuseString(m.UserID), r.reuseString(m.ReportID)
	m.Series = resize(m.Series, r.sliceLen())
	for i := range m.Series {
		s := &m.Series[i]
		s.Sensor = r.reuseString(s.Sensor)
		s.Samples = resize(s.Samples, r.sliceLen())
		for j := range s.Samples {
			smp := &s.Samples[j]
			smp.AtUnixMilli, smp.WindowMilli = r.Varint(), r.Varint()
			smp.Readings = resize(smp.Readings, r.sliceLen())
			for k := range smp.Readings {
				smp.Readings[k] = r.Float()
			}
		}
	}
	m.Track = resize(m.Track, r.sliceLen())
	for i := range m.Track {
		m.Track[i] = GeoPoint{AtUnixMilli: r.Varint(), Lat: r.Float(), Lon: r.Float(), Alt: r.Float()}
	}
}

// resize returns s holding n elements, reusing its backing array when it
// has room; a grown array keeps the elements s held, so their own buffers
// are reused in turn. Like make, it never returns nil.
func resize[T any](s []T, n int) []T {
	if s != nil && n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:cap(s)])
	return out
}

// MaxBatchReports bounds how many reports one DataUploadBatch may carry
// (both a codec sanity limit against hostile bodies and the contract the
// server's batched ingest path relies on).
const MaxBatchReports = 4096

// DataUploadBatch coalesces several reports into one message so bursty
// phones (and load generators) amortize the per-message transport and
// dispatch cost. Reports may target different tasks and applications; the
// server acknowledges the batch as a whole, reporting how many reports
// were accepted.
type DataUploadBatch struct {
	Uploads []DataUpload
}

var _ Message = (*DataUploadBatch)(nil)

// Type implements Message.
func (*DataUploadBatch) Type() MsgType { return TypeDataUploadBatch }

func (m *DataUploadBatch) encodePayload(w *Writer) {
	w.PutUvarint(uint64(len(m.Uploads)))
	for i := range m.Uploads {
		m.Uploads[i].encodePayload(w)
	}
}

func (m *DataUploadBatch) decodePayload(r *Reader) {
	n := r.sliceLen()
	if n > MaxBatchReports {
		r.Fail(fmt.Errorf("%w: batch of %d reports", ErrBadPayload, n))
		return
	}
	m.Uploads = make([]DataUpload, n)
	for i := range m.Uploads {
		m.Uploads[i].decodePayload(r)
	}
}

// Ack is the generic server response.
type Ack struct {
	OK      bool
	Code    int
	Message string
	// Payload optionally carries a nested encoded message (e.g. the
	// Schedule handed back on participation).
	Payload []byte
}

var _ Message = (*Ack)(nil)

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

func (m *Ack) encodePayload(w *Writer) {
	w.PutBool(m.OK)
	w.PutVarint(int64(m.Code))
	w.PutString(m.Message)
	w.PutBytes(m.Payload)
}

func (m *Ack) decodePayload(r *Reader) {
	m.OK, m.Code, m.Message, m.Payload = r.Bool(), int(r.Varint()), r.String(), r.Bytes()
}

// Leave notifies the server that a user departed the target place.
type Leave struct {
	UserID string
	AppID  string
}

var _ Message = (*Leave)(nil)

// Type implements Message.
func (*Leave) Type() MsgType { return TypeLeave }

func (m *Leave) encodePayload(w *Writer) {
	w.PutString(m.UserID)
	w.PutString(m.AppID)
}

func (m *Leave) decodePayload(r *Reader) { m.UserID, m.AppID = r.String(), r.String() }

// Ping is the keep-alive a phone sends when asked via the push channel
// (the paper's Google Cloud Messaging fallback).
type Ping struct {
	Token string
}

var _ Message = (*Ping)(nil)

// Type implements Message.
func (*Ping) Type() MsgType { return TypePing }

func (m *Ping) encodePayload(w *Writer) { w.PutString(m.Token) }

func (m *Ping) decodePayload(r *Reader) { m.Token = r.String() }

// PrefEntry is one feature preference inside a ranking request.
type PrefEntry struct {
	Feature string
	// Kind: 1 = value, 2 = min, 3 = max, 4 = default (mirrors
	// ranking.PrefKind; wire stays decoupled from that package).
	Kind   int
	Value  float64
	Weight int
}

// RankRequest asks the server for a personalized ranking.
type RankRequest struct {
	Category string // "hiking-trail", "coffee-shop"
	UserID   string
	Prefs    []PrefEntry
	// TopK, when > 0, asks for only the best TopK places; the server can
	// then bound aggregation work by the response size. 0 means the full
	// ranking. Encoded as an optional trailing field: a TopK=0 request is
	// byte-identical to the pre-TopK frame, and decoders treat a frame
	// without the field as TopK=0, so old and new peers interoperate in
	// the full-ranking case.
	TopK int
}

var _ Message = (*RankRequest)(nil)

// Type implements Message.
func (*RankRequest) Type() MsgType { return TypeRankRequest }

func (m *RankRequest) encodePayload(w *Writer) {
	w.PutString(m.Category)
	w.PutString(m.UserID)
	w.PutUvarint(uint64(len(m.Prefs)))
	for _, p := range m.Prefs {
		w.PutString(p.Feature)
		w.PutVarint(int64(p.Kind))
		w.PutFloat(p.Value)
		w.PutVarint(int64(p.Weight))
	}
	if m.TopK > 0 {
		w.PutUvarint(uint64(m.TopK))
	}
}

func (m *RankRequest) decodePayload(r *Reader) {
	m.Category, m.UserID = r.String(), r.String()
	m.Prefs = make([]PrefEntry, r.sliceLen())
	for i := range m.Prefs {
		m.Prefs[i] = PrefEntry{Feature: r.String(), Kind: int(r.Varint()), Value: r.Float(), Weight: int(r.Varint())}
	}
	m.TopK = 0
	if r.Remaining() > 0 {
		k := r.Uvarint()
		if k == 0 || k > 1<<31 {
			r.Fail(fmt.Errorf("%w: rank request top-k %d out of range", ErrBadPayload, k))
		}
		m.TopK = int(k)
	}
}

// RankedPlace is one row of a ranking response.
type RankedPlace struct {
	Place string
	// FeatureValues lists the feature data backing the rank, aligned
	// with RankResponse.Features.
	FeatureValues []float64
}

// RankResponse returns the personalized ranking plus the feature matrix
// rows so clients can display why.
type RankResponse struct {
	Category string
	// Epoch identifies the matrix snapshot the ranking was served from
	// (monotone per category on one server); clients use it to observe
	// staleness across responses.
	Epoch    int64
	Features []string
	Ranked   []RankedPlace
	// Stale marks a reply served by a read replica that knows it lags the
	// leader: the ranking is internally consistent (one epoch snapshot)
	// but may not reflect the newest uploads. Encoded only when set, as a
	// trailing field, so non-replica responses stay bit-stable with older
	// builds (the TopK idiom).
	Stale bool
}

var _ Message = (*RankResponse)(nil)

// Type implements Message.
func (*RankResponse) Type() MsgType { return TypeRankResponse }

func (m *RankResponse) encodePayload(w *Writer) {
	w.PutString(m.Category)
	w.PutVarint(m.Epoch)
	w.PutUvarint(uint64(len(m.Features)))
	for _, f := range m.Features {
		w.PutString(f)
	}
	w.PutUvarint(uint64(len(m.Ranked)))
	for _, p := range m.Ranked {
		w.PutString(p.Place)
		w.PutUvarint(uint64(len(p.FeatureValues)))
		for _, v := range p.FeatureValues {
			w.PutFloat(v)
		}
	}
	if m.Stale {
		w.PutBool(true)
	}
}

func (m *RankResponse) decodePayload(r *Reader) {
	m.Category, m.Epoch = r.String(), r.Varint()
	m.Features = make([]string, r.sliceLen())
	for i := range m.Features {
		m.Features[i] = r.String()
	}
	m.Ranked = make([]RankedPlace, r.sliceLen())
	for i := range m.Ranked {
		p := &m.Ranked[i]
		p.Place = r.String()
		p.FeatureValues = make([]float64, r.sliceLen())
		for j := range p.FeatureValues {
			p.FeatureValues[j] = r.Float()
		}
	}
	if r.Remaining() > 0 {
		m.Stale = r.Bool()
	}
}

// EpochInvalidate is a server-initiated push telling a device that a rank
// category advanced to a new epoch: any ranking the device cached for that
// category is stale and the next RankRequest will observe fresher data.
// Devices never send it; it only flows down a session stream.
type EpochInvalidate struct {
	Category string
	Epoch    int64
}

var _ Message = (*EpochInvalidate)(nil)

// Type implements Message.
func (*EpochInvalidate) Type() MsgType { return TypeEpochInvalidate }

func (m *EpochInvalidate) encodePayload(w *Writer) {
	w.PutString(m.Category)
	w.PutVarint(m.Epoch)
}

func (m *EpochInvalidate) decodePayload(r *Reader) { m.Category, m.Epoch = r.String(), r.Varint() }
