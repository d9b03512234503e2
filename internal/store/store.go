// Package store is SOR's datastore — the stand-in for the PostgreSQL
// instance the paper deploys (§II-B). It provides typed, concurrency-safe
// tables for users, applications, participations, raw binary uploads,
// processed feature data and distributed schedules, mirroring how the
// paper's server uses the database:
//
//   - the Message Handler lands raw binary sensed-data blobs directly into
//     the database without decoding them;
//   - the Data Processor later drains pending blobs, decodes them, and
//     writes feature rows;
//   - the Personalizable Ranker reads the feature matrix H from the
//     feature table;
//   - the Scheduler persists distributed schedules.
//
// Snapshot/Restore give binary durability (snapshot.go, codec.go) so a
// server can restart without losing state.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/wal"
)

// Sentinel errors.
var (
	ErrNotFound  = errors.New("store: not found")
	ErrDuplicate = errors.New("store: duplicate key")
)

// User is a registered mobile user (User Info Manager).
type User struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Token string `json:"token"` // uniquely identifies the device
}

// Application is a sensing procedure for one target place (Application
// Manager): who created it, where the place is, and the Lua scripts that
// define data acquisition.
type Application struct {
	ID       string  `json:"id"`
	Creator  string  `json:"creator"`
	Category string  `json:"category"` // e.g. "hiking-trail"
	Place    string  `json:"place"`    // display name of the target place
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	// RadiusM is the geofence radius used to verify participants.
	RadiusM float64 `json:"radius_m"`
	// Script is the Lua data-acquisition procedure.
	Script string `json:"script"`
	// PeriodSec is the scheduling period duration chosen by the creator.
	PeriodSec int64 `json:"period_sec"`
}

// TaskStatus is a participation's lifecycle state (§II-B lists "running,
// waiting for sensing schedule, finished, error").
type TaskStatus int

// Task statuses.
const (
	TaskWaiting TaskStatus = iota + 1
	TaskRunning
	TaskFinished
	TaskError
)

// String names the status.
func (s TaskStatus) String() string {
	switch s {
	case TaskWaiting:
		return "waiting"
	case TaskRunning:
		return "running"
	case TaskFinished:
		return "finished"
	case TaskError:
		return "error"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// Participation is one user's sensing task for one application
// (Participation Manager).
type Participation struct {
	TaskID string     `json:"task_id"`
	UserID string     `json:"user_id"`
	Token  string     `json:"token"`
	AppID  string     `json:"app_id"`
	Budget int        `json:"budget"` // remaining sensing budget
	Status TaskStatus `json:"status"`
	Joined time.Time  `json:"joined"`
	// LeaveBy is the departure deadline the scheduler was given at join
	// time (the earlier of the period end and the user's declared stay).
	// Persisted so crash recovery can re-seed the online scheduler with
	// the same participant window the live join used.
	LeaveBy time.Time `json:"leave_by,omitempty"`
	Left    time.Time `json:"left,omitempty"`
	LastErr string    `json:"last_err,omitempty"`
}

// RawUpload is an undecoded binary sensed-data message, exactly as
// received. AppID is the routing hint the Message Handler knows at ingest
// time; it picks the upload bucket so concurrent uploads for different
// applications do not contend on one lock.
type RawUpload struct {
	Seq      int64     `json:"seq"`
	AppID    string    `json:"app_id"`
	Received time.Time `json:"received"`
	Body     []byte    `json:"body"`
	// RequestID is the trace id of the wire request that delivered the
	// blob (empty for untraced peers). It lets the asynchronous processor
	// stamp its fold span with the same id the client minted, stitching
	// ingest and processing into one trace.
	RequestID string `json:"request_id,omitempty"`
}

// FeatureRow is one processed feature value for one place.
type FeatureRow struct {
	Category string    `json:"category"`
	Place    string    `json:"place"`
	Feature  string    `json:"feature"`
	Value    float64   `json:"value"`
	Samples  int       `json:"samples"` // how many raw readings backed it
	Updated  time.Time `json:"updated"`
}

// ScheduleRow records a schedule distributed to a phone.
type ScheduleRow struct {
	TaskID string  `json:"task_id"`
	AppID  string  `json:"app_id"`
	UserID string  `json:"user_id"`
	AtUnix []int64 `json:"at_unix"`
}

// numShards is the bucket count for the sharded hot tables (uploads and
// schedules). A modest power of two: enough that concurrent apps rarely
// collide, small enough that draining every bucket stays cheap.
const numShards = 32

// shardIndex hashes a key onto a bucket (FNV-1a, stable across runs).
func shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % numShards)
}

// schedShard is one bucket of the schedules table, keyed by task ID.
type schedShard struct {
	mu   sync.RWMutex
	rows map[string]ScheduleRow
}

// Store is the whole database. The zero value is not usable; call New.
//
// The cold tables (users, apps, participations, features) share one
// RWMutex; the hot tables written on every report upload (raw uploads and
// dedup windows, schedules) are sharded into per-app / per-task buckets so
// concurrent ingest for different applications proceeds in parallel (see
// DESIGN.md, "Concurrency model").
type Store struct {
	// snapMu is the checkpoint gate (snapshot.go): every mutator holds it
	// for read around its table lock and WAL append, a checkpoint holds it
	// for write while it captures an image, so the image plus the WAL
	// watermark read under it form an exact cut of the mutation log.
	// Purely in-memory stores pay one uncontended RLock per mutation.
	snapMu sync.RWMutex
	// wal, when attached, receives one record per mutation *before* the
	// mutation is applied (write-ahead). Nil for in-memory stores.
	wal *wal.Log
	// archive makes DrainUploads keep drained chunks instead of dropping
	// them, so crash recovery can refold the full upload history. Set once
	// at attach time, before the store is shared.
	archive bool
	// restoredLSN is the WAL position the loaded snapshot covers; replay
	// after restore starts just past it.
	restoredLSN uint64

	mu             sync.RWMutex
	users          map[string]User
	tokens         map[string]string // device token -> lowest user ID holding it
	apps           appTable          // apps.go
	participations map[string]Participation
	// activeTasks indexes participations by user: the (app, task) IDs of
	// the user's tasks neither finished nor failed, ascending. Derived —
	// rebuilt by every path that writes participations, never persisted.
	activeTasks map[string][]activeTask
	anchors     map[string]int64 // appID -> scheduling-period anchor (unix seconds)

	uploadSeq    atomic.Int64
	uploadShards [numShards]uploadShard
	schedShards  [numShards]schedShard

	// features holds one *featTable per category (features.go). The map
	// is read without s.mu, so the rank-serving layer can poll a category's
	// version lock-free; each table's contents are guarded by s.mu. cats
	// lists the same tables by featTable.id, guarded by s.mu.
	features sync.Map
	cats     []*featTable
}

// activeTask is one entry of a user's active-task index.
type activeTask struct {
	AppID, TaskID string
}

// byAppTask orders activeTask entries by app ID, then task ID.
func byAppTask(a, b activeTask) int {
	return cmp.Or(strings.Compare(a.AppID, b.AppID), strings.Compare(a.TaskID, b.TaskID))
}

// New creates an empty store.
func New() *Store {
	s := &Store{
		users:          make(map[string]User),
		tokens:         make(map[string]string),
		participations: make(map[string]Participation),
		activeTasks:    make(map[string][]activeTask),
		anchors:        make(map[string]int64),
	}
	for i := range s.schedShards {
		s.schedShards[i].rows = make(map[string]ScheduleRow)
	}
	return s
}

// ---- Users ----

// PutUser inserts a user; duplicate IDs are an error.
func (s *Store) PutUser(u User) error {
	if u.ID == "" {
		return errors.New("store: user needs an id")
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[u.ID]; ok {
		return fmt.Errorf("%w: user %s", ErrDuplicate, u.ID)
	}
	if err := s.logOp(&walOp{tag: userTag, user: u}); err != nil {
		return err
	}
	s.setUser(u)
	return nil
}

// setUser writes one row and keeps the token index in step: a token two
// users share names the lowest user ID. Every write to the users table
// goes through it; the caller holds s.mu or owns the store.
func (s *Store) setUser(u User) {
	s.users[u.ID] = u
	if id, ok := s.tokens[u.Token]; !ok || u.ID < id {
		s.tokens[u.Token] = u.ID
	}
}

// User fetches a user by ID.
func (s *Store) User(id string) (User, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[id]
	if !ok {
		return User{}, fmt.Errorf("%w: user %s", ErrNotFound, id)
	}
	return u, nil
}

// UserByToken finds the user owning a device token (the lowest user ID,
// should several share it).
func (s *Store) UserByToken(token string) (User, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, ok := s.tokens[token]; ok {
		return s.users[id], nil
	}
	return User{}, fmt.Errorf("%w: token", ErrNotFound)
}

// Users lists all users sorted by ID.
func (s *Store) Users() []User {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]User, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---- Participations ----

// PutParticipation inserts a task.
func (s *Store) PutParticipation(p Participation) error {
	if p.TaskID == "" {
		return errors.New("store: participation needs a task id")
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.participations[p.TaskID]; ok {
		return fmt.Errorf("%w: task %s", ErrDuplicate, p.TaskID)
	}
	if err := s.logOp(&walOp{tag: partTag, part: p}); err != nil {
		return err
	}
	s.setParticipation(p)
	return nil
}

// active reports whether the task still binds its user: neither finished
// nor failed.
func (p Participation) active() bool {
	return p.Status != TaskFinished && p.Status != TaskError
}

// setParticipation writes one row and keeps activeTasks in step. Every
// write to the participations table goes through it; the caller holds
// s.mu or owns the store.
func (s *Store) setParticipation(p Participation) {
	if old, ok := s.participations[p.TaskID]; ok && old.active() {
		tasks := s.activeTasks[old.UserID]
		if i, found := slices.BinarySearchFunc(tasks, activeTask{old.AppID, old.TaskID}, byAppTask); found {
			tasks = slices.Delete(tasks, i, i+1)
		}
		if len(tasks) == 0 {
			delete(s.activeTasks, old.UserID)
		} else {
			s.activeTasks[old.UserID] = tasks
		}
	}
	s.participations[p.TaskID] = p
	if p.active() {
		tasks := s.activeTasks[p.UserID]
		i, _ := slices.BinarySearchFunc(tasks, activeTask{p.AppID, p.TaskID}, byAppTask)
		s.activeTasks[p.UserID] = slices.Insert(tasks, i, activeTask{p.AppID, p.TaskID})
	}
}

// UpdateParticipation applies fn to the stored row under the write lock.
func (s *Store) UpdateParticipation(taskID string, fn func(*Participation)) error {
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.participations[taskID]
	if !ok {
		return fmt.Errorf("%w: task %s", ErrNotFound, taskID)
	}
	fn(&p)
	if err := s.logOp(&walOp{tag: partTag, part: p}); err != nil {
		return err
	}
	s.setParticipation(p)
	return nil
}

// Participation fetches a task.
func (s *Store) Participation(taskID string) (Participation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.participations[taskID]
	if !ok {
		return Participation{}, fmt.Errorf("%w: task %s", ErrNotFound, taskID)
	}
	return p, nil
}

// ParticipationsByApp lists tasks for an application sorted by task ID.
func (s *Store) ParticipationsByApp(appID string) []Participation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Participation
	for _, p := range s.participations {
		if p.AppID == appID {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

// Participations lists every task sorted by app ID, then task ID.
func (s *Store) Participations() []Participation {
	s.mu.RLock()
	out := values(s.participations)
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Participation) int {
		return byAppTask(activeTask{a.AppID, a.TaskID}, activeTask{b.AppID, b.TaskID})
	})
	return out
}

// ActiveTaskOfUser finds a user's non-finished task on any application (the
// one ActiveParticipationByUser gives for the lowest app ID) and its app.
func (s *Store) ActiveTaskOfUser(userID string) (Application, Participation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tasks := s.activeTasks[userID]; len(tasks) > 0 {
		var app Application
		if r, ok := s.apps.find(tasks[0].AppID); ok {
			app = s.app(r)
		}
		return app, s.participations[tasks[0].TaskID], nil
	}
	return Application{}, Participation{}, fmt.Errorf("%w: active task for %s", ErrNotFound, userID)
}

// ActiveParticipationByUser finds a user's non-finished task for an app;
// should there be several, the one with the lowest task ID.
func (s *Store) ActiveParticipationByUser(appID, userID string) (Participation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tasks := s.activeTasks[userID]
	if i, _ := slices.BinarySearchFunc(tasks, activeTask{AppID: appID}, byAppTask); i < len(tasks) && tasks[i].AppID == appID {
		return s.participations[tasks[i].TaskID], nil
	}
	return Participation{}, fmt.Errorf("%w: active task for %s/%s", ErrNotFound, appID, userID)
}

// ---- Raw uploads ----

// IngestOptions parameterizes Store.Ingest.
type IngestOptions struct {
	// Received stamps every stored row.
	Received time.Time
	// RequestID is the trace id of the wire request that delivered the
	// blobs (one id per call — a batch is one wire frame).
	RequestID string
	// ReportIDs, when non-nil, must parallel the bodies: each non-empty id
	// is checked against (and then recorded in) the app's dedup window, so
	// a retransmission is acked without being stored twice. Empty ids
	// (legacy senders) are never deduplicated.
	ReportIDs []string
}

// IngestResult reports what one Ingest call did.
type IngestResult struct {
	// Fresh parallels the input bodies: false marks a dedup-window hit
	// that was acknowledged but not stored.
	Fresh []bool
	// Stored is the number of bodies actually stored.
	Stored int
	// LastSeq is the sequence number of the last stored body (0 if none).
	LastSeq int64
}

// Ingest is the Message Handler's one write path: it checks each report
// against the app's dedup window, logs the surviving bodies and their
// window marks as a single WAL record, and only then applies both — so a
// crash can never ack a report without persisting it, nor remember a
// ReportID whose body was lost. The app's shard lock, which guards its rows
// and its window, is held across the log enqueue and the apply, which
// keeps WAL order equal to apply order for everything the record touches;
// the durability wait happens after the lock releases (group commit), so
// concurrent ingests share one fsync instead of serializing on it. The store keeps a copy of
// each stored body; the caller's slices stay the caller's.
func (s *Store) Ingest(appID string, bodies [][]byte, opt IngestOptions) (IngestResult, error) {
	if len(bodies) == 0 {
		return IngestResult{}, nil
	}
	if opt.ReportIDs != nil && len(opt.ReportIDs) != len(bodies) {
		return IngestResult{}, errors.New("store: ingest ReportIDs must parallel bodies")
	}
	res, lsn, err := s.ingestLocked(appID, bodies, opt)
	if err != nil {
		return res, err
	}
	if lsn != 0 {
		// The record is ordered and applied but possibly not yet durable.
		// A Wait failure means the log died mid-flight: the caller must
		// not ack — same contract as crashing before the ack.
		if err := s.wal.Wait(lsn); err != nil {
			return IngestResult{Fresh: make([]bool, len(bodies))}, fmt.Errorf("store: wal append: %w", err)
		}
	}
	return res, nil
}

// ingestLocked is Ingest under the locks; it returns the enqueued WAL
// record's LSN (0 when nothing was logged) for the caller to Wait on.
func (s *Store) ingestLocked(appID string, bodies [][]byte, opt IngestOptions) (IngestResult, uint64, error) {
	res := IngestResult{Fresh: make([]bool, len(bodies))}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	sh := &s.uploadShards[shardIndex(appID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	w := sh.windows[appID]
	// First pass: decide freshness without mutating the window, so a WAL
	// refusal leaves no trace. A repeated id within one call is a
	// duplicate too (the sequential-mark semantics of the old path).
	var batchSeen map[string]struct{}
	stored := 0
	for i := range bodies {
		if opt.ReportIDs != nil && opt.ReportIDs[i] != "" {
			id := opt.ReportIDs[i]
			if w.seen(view(id)) {
				continue
			}
			// Intra-call duplicates only exist when there are multiple
			// bodies; the single-report path skips the map entirely.
			if len(bodies) > 1 {
				if _, dup := batchSeen[id]; dup {
					continue
				}
				if batchSeen == nil {
					batchSeen = make(map[string]struct{}, len(bodies))
				}
				batchSeen[id] = struct{}{}
			}
		}
		res.Fresh[i] = true
		stored++
	}
	if stored == 0 {
		return res, 0, nil
	}

	base := s.uploadSeq.Add(int64(stored)) - int64(stored)
	fresh, ids := bodies, opt.ReportIDs
	if stored < len(bodies) {
		fresh, ids = make([][]byte, 0, stored), make([]string, 0, stored)
		for i, body := range bodies {
			if res.Fresh[i] {
				fresh, ids = append(fresh, body), append(ids, opt.ReportIDs[i])
			}
		}
	}
	var payload []byte
	var encBuf *[]byte
	if s.wal != nil {
		encBuf = encPool.Get().(*[]byte)
		payload = appendIngestRecord((*encBuf)[:0], appID, base, opt.Received, opt.RequestID, fresh, ids)
	}
	var lsn uint64
	if s.wal != nil {
		var err error
		lsn, err = s.wal.Enqueue(payload)
		*encBuf = payload[:0] // Enqueue copied the payload
		encPool.Put(encBuf)
		if err != nil {
			return IngestResult{Fresh: make([]bool, len(bodies))}, 0, fmt.Errorf("store: wal append: %w", err)
		}
	}
	for i, body := range fresh {
		sh.add(sh.row(appID, base+int64(i)+1, opt.Received, view(opt.RequestID), body), false)
	}
	for _, id := range ids {
		if id != "" {
			sh.window(appID).mark(view(id))
		}
	}
	res.Stored = stored
	res.LastSeq = base + int64(stored)
	return res, lsn, nil
}

// SeenReportIDs returns a sorted copy of appID's dedup-window contents
// (recovery checks and tests compare windows as sets; eviction order is
// not exposed).
func (s *Store) SeenReportIDs(appID string) []string {
	sh := &s.uploadShards[shardIndex(appID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	w, ok := sh.windows[appID]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(w.ids))
	w.each(func(id []byte) { out = append(out, string(id)) })
	sort.Strings(out)
	return out
}

// DrainUploads removes and returns all pending uploads (oldest first,
// across every bucket) — the Data Processor's periodic poll.
func (s *Store) DrainUploads() []RawUpload {
	cuts := make([]shardCut, len(s.uploadShards))
	total := 0
	for i := range s.uploadShards {
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		total += sh.count
		cuts[i] = sh.take(s.archive)
		sh.mu.Unlock()
	}
	out := make([]RawUpload, 0, total)
	for i := range cuts {
		out = cuts[i].appendRaw(out, cuts[i].pending...)
	}
	slices.SortFunc(out, bySeq)
	return out
}

// bySeq orders upload rows by sequence number.
func bySeq(a, b RawUpload) int { return cmp.Compare(a.Seq, b.Seq) }

// AppHistory is one application's share of the upload history, in
// sequence order.
type AppHistory struct {
	AppID string
	Rows  []RawUpload
}

// DrainHistory is DrainUploads over the whole upload history, split by
// application: archived uploads rejoin the pending ones, and all of them
// are drained (and, on an archiving store, archived again). Applications
// come back in ID order, each with its rows in sequence order. Crash
// recovery rebuilds the budget ledgers and the feature matrix from it —
// the processor's accumulators died with the old process, and features
// must stay a pure function of the complete sample set.
//
// Every row of an application sits in its one upload shard, so no global
// sort is needed; a writer claims its sequence numbers under the shard
// lock, so a run is in order, and only one that fails the order check is
// sorted.
func (s *Store) DrainHistory() []AppHistory {
	var out []AppHistory
	for i := range s.uploadShards {
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		if sh.doneCount > 0 {
			sh.pending = append(sh.archived, sh.pending...)
			sh.count += sh.doneCount
			sh.archived = nil
			sh.doneCount = 0
		}
		c := sh.take(s.archive)
		sh.mu.Unlock()
		// Count each app's rows, then copy them into runs sized once.
		run := make([]int, len(c.apps)) // rows, then the run's index in out
		for _, chunk := range c.pending {
			for k := range chunk {
				run[chunk[k].app]++
			}
		}
		for app, n := range run {
			if run[app] = len(out); n > 0 {
				out = append(out, AppHistory{AppID: c.apps[app], Rows: make([]RawUpload, 0, n)})
			}
		}
		for _, chunk := range c.pending {
			for k := range chunk {
				h := &out[run[chunk[k].app]]
				h.Rows = c.appendRaw(h.Rows, chunk[k:k+1])
			}
		}
	}
	for i := range out {
		if rows := out[i].Rows; !slices.IsSortedFunc(rows, bySeq) {
			slices.SortFunc(rows, bySeq)
		}
	}
	slices.SortFunc(out, func(a, b AppHistory) int { return strings.Compare(a.AppID, b.AppID) })
	return out
}

// PendingUploads reports how many blobs await processing.
func (s *Store) PendingUploads() int {
	n := 0
	for i := range s.uploadShards {
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}

// UploadCount reports how many raw uploads the store holds in total —
// pending plus archived. On a durable store this is the lifetime
// exactly-once ingest count a crash-recovery check compares; in-memory
// stores discard drained uploads, so there it equals PendingUploads.
func (s *Store) UploadCount() int {
	n := 0
	for i := range s.uploadShards {
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		n += sh.count + sh.doneCount
		sh.mu.Unlock()
	}
	return n
}

// AllUploads returns every upload the store holds (archived then pending)
// in sequence order, leaving both sides as they are.
func (s *Store) AllUploads() []RawUpload {
	var out []RawUpload
	for i := range s.uploadShards {
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		out = sh.appendRaw(out, sh.archived...)
		out = sh.appendRaw(out, sh.pending...)
		sh.mu.Unlock()
	}
	slices.SortFunc(out, bySeq)
	return out
}

// UploadSeq returns the sequence number of the most recent raw upload; it
// moves on every ingest, so comparing values detects pending raw data.
func (s *Store) UploadSeq() int64 { return s.uploadSeq.Load() }

// ---- Schedules ----

// PutSchedule records a distributed schedule (replacing any prior one for
// the task).
func (s *Store) PutSchedule(row ScheduleRow) error {
	if row.TaskID == "" {
		return errors.New("store: schedule needs a task id")
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	sh := &s.schedShards[shardIndex(row.TaskID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.logOp(&walOp{tag: schedTag, sched: row}); err != nil {
		return err
	}
	sh.rows[row.TaskID] = row
	return nil
}

// ---- Scheduling anchors ----

// AnchorRow is one application's persisted period anchor.
type AnchorRow struct {
	AppID      string `json:"app_id"`
	AnchorUnix int64  `json:"anchor_unix"`
}

// PutAnchor persists an application's scheduling-period anchor (the
// truncated first-participation instant). Re-putting the same value is a
// no-op; changing an existing anchor is refused, because schedules and
// executed instants are only meaningful relative to it.
func (s *Store) PutAnchor(appID string, anchor time.Time) error {
	if appID == "" {
		return errors.New("store: anchor needs an app id")
	}
	unix := anchor.Unix()
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.anchors[appID]; ok {
		if cur == unix {
			return nil
		}
		return fmt.Errorf("%w: anchor for %s", ErrDuplicate, appID)
	}
	if err := s.logOp(&walOp{tag: anchorTag, anchor: AnchorRow{AppID: appID, AnchorUnix: unix}}); err != nil {
		return err
	}
	s.anchors[appID] = unix
	return nil
}

// Anchors lists every persisted anchor sorted by app ID (crash recovery
// rebuilds the per-app scheduling timelines from them).
func (s *Store) Anchors() []AnchorRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]AnchorRow, 0, len(s.anchors))
	for appID, unix := range s.anchors {
		out = append(out, AnchorRow{AppID: appID, AnchorUnix: unix})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AppID < out[j].AppID })
	return out
}

// Schedule fetches a schedule by task ID.
func (s *Store) Schedule(taskID string) (ScheduleRow, error) {
	sh := &s.schedShards[shardIndex(taskID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.rows[taskID]
	if !ok {
		return ScheduleRow{}, fmt.Errorf("%w: schedule %s", ErrNotFound, taskID)
	}
	return row, nil
}
