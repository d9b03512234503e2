// Package server implements SOR's Sensing Server (Fig. 5): the Message
// Handler dispatching binary-over-HTTP messages, the User Info Manager,
// the Application Manager, the Participation Manager with geofence
// verification, the Sensing Scheduler (event-driven greedy coverage
// maximization, §III), the Data Processor (§IV-A) and the Personalizable
// Ranker (§IV-B), all backed by the store package standing in for
// PostgreSQL.
package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/coverage"
	"sor/internal/device"
	"sor/internal/geo"
	"sor/internal/luascript"
	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// DB is an already-open backing store. Exactly one of DB and Storage
	// must be set. A server built on DB is ready immediately (the legacy
	// construction path); a server built on Storage must be Opened first.
	DB *store.Store
	// Storage is the pluggable persistence backend (store.NewMemoryBackend,
	// store.NewDurableBackend). Server.Open recovers the store from it and
	// rebuilds the scheduling state; Server.Close shuts it down.
	Storage store.Backend
	// Now supplies time; tests and simulations inject a virtual clock.
	// Defaults to time.Now.
	Now func() time.Time
	// Kernel is the coverage kernel (default Gaussian σ=10 s, the
	// paper's simulation setting).
	Kernel coverage.Kernel
	// Step is the timeline discretization (default 10 s).
	Step time.Duration
	// Catalog maps a category to its ranked features with default
	// preferences; required for ranking.
	Catalog map[string][]ranking.Feature
	// Push is the optional server-initiated path to phones: the session
	// registry (internal/transport/session) the stream endpoint serves.
	// Fresh schedules and epoch invalidations ride the live device
	// streams; nil means phones learn of both on their next request.
	Push transport.Notifier
	// RobustExtraction enables MAD outlier rejection in the Data
	// Processor (defends against miscalibrated phones).
	RobustExtraction bool
	// RankRefresh bounds rank-serving staleness: a matrix snapshot with
	// pending ingest keeps serving until it is this old, then rebuilds
	// lazily on the next rank request. Zero (the default) means rank
	// requests always observe every prior ingest, like the legacy path
	// that re-processed per query.
	RankRefresh time.Duration
	// MaxReplicaLag bounds how stale a read replica may serve rank
	// queries: when the follower has not confirmed contact with the
	// leader within this window, rank requests are refused (503,
	// retryable) instead of silently serving old data. Zero means serve
	// regardless of lag. Replies that are served while the replica knows
	// it lags carry the RankResponse.Stale flag. Only meaningful on
	// servers opened as replicas.
	MaxReplicaLag time.Duration
	// Observer enables metrics and request tracing (nil = observability
	// off; every instrumentation point degrades to a no-op).
	Observer *obs.Observer
}

// Server is one sensing server instance. Its mutable scheduling state is
// sharded per application (see shards.go and DESIGN.md "Concurrency
// model"): there is no server-global lock on the upload or scheduling hot
// paths.
type Server struct {
	db      *store.Store
	storage store.Backend
	now     func() time.Time
	kernel  coverage.Kernel
	step    time.Duration
	catalog map[string][]ranking.Feature
	push    transport.Notifier

	states  *shardedStates // appID -> scheduler state, sharded
	taskSeq atomic.Int64

	processor *DataProcessor
	// killed is set by Kill: a crashed process runs no more code, so the
	// processing loop stops without its final drain.
	killed atomic.Bool

	// Rank-serving state (snapshots.go): per-category epoch snapshots and
	// result caches, plus the appID→category cache ingest uses to bump
	// dirty counters without a store lookup.
	rankRefresh  time.Duration
	servingByCat sync.Map // category -> *categoryServing
	appCats      sync.Map // appID -> category string

	// Replica mode (replica.go): when set, the server is a warm standby —
	// every mutating message is refused retryably, the data processor
	// never runs (derived state arrives via the replicated WAL), and rank
	// queries are staleness-gated by maxReplicaLag against lagProbe.
	replica       atomic.Bool
	maxReplicaLag time.Duration
	lagProbe      atomic.Pointer[ReplicaLagProbe]

	obsv *obs.Observer
	met  serverMetrics

	// replanned, when set, runs after a join or leave replanned and before
	// its plan is distributed (tests widen that window with it).
	replanned func()
}

// serverMetrics are the server's constant-label handles, created once at
// construction so the hot paths never touch the registry. All fields are
// nil (no-op) when the server has no observer. Per-type handles live in
// small arrays indexed by the wire type byte — an indexed load, not a
// map lookup, on the dispatch path.
type serverMetrics struct {
	requests  [16]*obs.Counter
	handlerMs [16]*obs.Histogram

	ingestReports    *obs.Counter // upload arrivals that matched an active task (pre-dedup)
	ingestAccepted   *obs.Counter // reports stored exactly once
	ingestDuplicates *obs.Counter // dedup-window hits (lost-ack retransmissions)
	ingestRejected   *obs.Counter // reports refused (unknown task / identity mismatch)

	replans               *obs.Counter
	snapshotRebuilds      *obs.Counter
	snapshotDeltaRebuilds *obs.Counter // rebuilds served by an incremental column merge
	snapshotRearms        *obs.Counter // stale signals that re-armed the epoch without a rebuild
	snapshotRebuildMs     *obs.Histogram
	rankCacheHits         *obs.Counter
	rankCacheMisses       *obs.Counter

	recoverMs        [numRecoverStages]*obs.Histogram // one observation per stage per recovery
	recoveredUploads *obs.Counter                     // stored uploads a recovery replayed
}

// Recovery stages, as the stage label of sor_server_recover_ms names them
// (recover.go says what each one covers).
const (
	stageStoreOpen = iota
	stageReplan
	stageRefold
	stageExtract
	stageUpsert
	numRecoverStages
)

var recoverStageNames = [numRecoverStages]string{"store_open", "replan", "refold", "extract", "upsert"}

// handlerLatencySampleShift makes the handler latency histogram time one
// request in every 8, per type. The sampling decision rides the per-type
// request counter (obs.Counter.IncSample), so it costs no extra atomic;
// what it saves is the clock-read pair, which dwarfs the rest of the
// per-request instrumentation.
const handlerLatencySampleShift = 3

// requestTypes are the message types phones and rank clients send; their
// per-type series are registered eagerly so the ops surface shows every
// expected series from boot, not only after first traffic.
var requestTypes = []wire.MsgType{
	wire.TypeParticipate, wire.TypeDataUpload, wire.TypeDataUploadBatch,
	wire.TypeLeave, wire.TypePing, wire.TypeRankRequest,
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		ingestReports:         reg.Counter("sor_ingest_reports_total"),
		ingestAccepted:        reg.Counter("sor_ingest_accepted_total"),
		ingestDuplicates:      reg.Counter("sor_ingest_duplicate_total"),
		ingestRejected:        reg.Counter("sor_ingest_rejected_total"),
		replans:               reg.Counter("sor_sched_replans_total"),
		snapshotRebuilds:      reg.Counter("sor_snapshot_rebuilds_total"),
		snapshotDeltaRebuilds: reg.Counter("sor_snapshot_delta_rebuilds_total"),
		snapshotRearms:        reg.Counter("sor_snapshot_rearms_total"),
		snapshotRebuildMs:     reg.LatencyHistogram("sor_snapshot_rebuild_ms"),
		rankCacheHits:         reg.Counter("sor_rank_cache_hits_total"),
		rankCacheMisses:       reg.Counter("sor_rank_cache_misses_total"),
		recoveredUploads:      reg.Counter("sor_server_recovered_uploads_total"),
	}
	for stage, name := range recoverStageNames {
		m.recoverMs[stage] = reg.LatencyHistogram("sor_server_recover_ms", obs.L("stage", name))
	}
	for _, t := range requestTypes {
		m.requests[byte(t)&0xf] = reg.Counter("sor_server_requests_total", obs.L("type", t.String()))
		m.handlerMs[byte(t)&0xf] = reg.LatencyHistogram("sor_server_handler_ms", obs.L("type", t.String()))
	}
	return m
}

// appSchedState holds one application's scheduling period state. The
// timeline is immutable after creation and online is internally
// synchronized; mu guards only the task/token maps, which hold the
// members present now — a join adds one once the scheduler took it, a
// leave removes it — exactly what recovery rebuilds from the store.
type appSchedState struct {
	timeline *coverage.Timeline
	online   *schedule.Online

	// plan is held by a join or leave from its replan until its plan is
	// distributed, so plans reach the store in the order they were made:
	// an op that replanned first can never distribute after a later one
	// and rewrite rows from the plan that op superseded.
	plan sync.Mutex

	mu      sync.Mutex
	taskOf  map[string]string // userID -> taskID
	tokenOf map[string]string // userID -> device token
}

// member returns a present member's task and device token.
func (st *appSchedState) member(userID string) (taskID, token string, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	taskID, ok = st.taskOf[userID]
	return taskID, st.tokenOf[userID], ok
}

// New builds a server. With cfg.DB the server is usable immediately;
// with cfg.Storage it must be Opened to recover the store first.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil && cfg.Storage == nil {
		return nil, errors.New("server: nil store")
	}
	if cfg.DB != nil && cfg.Storage != nil {
		return nil, errors.New("server: DB and Storage are mutually exclusive")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Kernel == nil {
		cfg.Kernel = coverage.GaussianKernel{Sigma: 10}
	}
	if cfg.Step <= 0 {
		cfg.Step = 10 * time.Second
	}
	if len(cfg.Catalog) == 0 {
		return nil, errors.New("server: empty feature catalog")
	}
	s := &Server{
		db:            cfg.DB,
		storage:       cfg.Storage,
		now:           cfg.Now,
		kernel:        cfg.Kernel,
		step:          cfg.Step,
		catalog:       cfg.Catalog,
		push:          cfg.Push,
		rankRefresh:   cfg.RankRefresh,
		maxReplicaLag: cfg.MaxReplicaLag,
	}
	s.states = newShardedStates()
	s.processor = NewDataProcessor(cfg.DB, cfg.RobustExtraction)
	s.processor.SetNow(cfg.Now)
	if cfg.Observer != nil {
		s.obsv = cfg.Observer
		s.met = newServerMetrics(cfg.Observer.Metrics())
		s.processor.SetObserver(cfg.Observer)
	}
	return s, nil
}

// Observer exposes the server's observer (nil when observability is off).
func (s *Server) Observer() *obs.Observer { return s.obsv }

// DB exposes the backing store.
func (s *Server) DB() *store.Store { return s.db }

// Processor exposes the data processor (for periodic driving).
func (s *Server) Processor() *DataProcessor { return s.processor }

// Handler returns the transport dispatch function. The context flows
// from the HTTP layer through every handler into the store and
// processor calls: cancellation is honored before side effects, and the
// trace RequestID it carries stamps the handler span and the stored
// upload. With an observer, dispatch counts every request and times a
// uniform 1-in-8 sample of them into the per-type latency histogram.
func (s *Server) Handler() transport.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if ctx == nil {
			ctx = context.Background()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.obsv == nil {
			return s.dispatch(ctx, m)
		}
		span := s.obsv.StartSpanID(obs.RequestIDFrom(ctx), "server.handle")
		span.Annotate("type", m.Type().String())
		idx := byte(m.Type()) & 0xf
		sampled := s.met.requests[idx].IncSample(handlerLatencySampleShift)
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		resp, err := s.dispatch(ctx, m)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if sampled {
			s.met.handlerMs[idx].Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		}
		return resp, err
	}
}

func (s *Server) dispatch(ctx context.Context, m wire.Message) (wire.Message, error) {
	if s.db == nil {
		return nil, errors.New("server: not open")
	}
	// A replica refuses every mutating message retryably (503, like a
	// node mid-restart) so phones fail over to the leader instead of
	// diverging this node's log. Reads — ping and rank — stay served.
	if s.replica.Load() {
		switch m.(type) {
		case *wire.Participate, *wire.DataUpload, *wire.DataUploadBatch, *wire.Leave:
			return refuse(503, "replica: writes go to the leader"), nil
		}
	}
	switch msg := m.(type) {
	case *wire.Participate:
		return s.handleParticipate(ctx, msg)
	case *wire.DataUpload:
		return s.handleDataUpload(ctx, msg)
	case *wire.DataUploadBatch:
		return s.HandleReportBatch(ctx, msg)
	case *wire.Leave:
		return s.handleLeave(ctx, msg)
	case *wire.Ping:
		return s.handlePing(ctx, msg)
	case *wire.RankRequest:
		return s.handleRankRequest(ctx, msg)
	default:
		return nil, fmt.Errorf("server: unsupported message %s", m.Type())
	}
}

// CreateApp registers an application (the Application Manager's insert
// path, used by sorctl and the harness).
func (s *Server) CreateApp(app store.Application) error {
	if s.db == nil {
		return errors.New("server: not open")
	}
	if app.PeriodSec <= 0 {
		return errors.New("server: application needs a positive scheduling period")
	}
	if app.RadiusM <= 0 {
		return errors.New("server: application needs a geofence radius")
	}
	if app.Script == "" {
		return errors.New("server: application needs a sensing script")
	}
	// A script outside the task language is refused here, with its
	// position, rather than failing on every participant's phone.
	if _, err := luascript.Parse(app.Script, device.ScriptFunctions); err != nil {
		return fmt.Errorf("server: application script: %w", err)
	}
	return s.db.PutApp(app)
}

// schedState lazily creates the per-app scheduling state, anchoring the
// period at the first participation. Only the app's own shard is locked.
func (s *Server) schedState(app store.Application, anchor time.Time) (*appSchedState, error) {
	return s.states.getOrCreate(app.ID, func() (*appSchedState, error) {
		n := int(time.Duration(app.PeriodSec)*time.Second/s.step) + 1
		tl, err := coverage.NewTimeline(anchor.Truncate(s.step), s.step, n)
		if err != nil {
			return nil, fmt.Errorf("server: timeline for %s: %w", app.ID, err)
		}
		sched, err := schedule.NewScheduler(tl, s.kernel)
		if err != nil {
			return nil, err
		}
		online, err := schedule.NewOnline(sched)
		if err != nil {
			return nil, err
		}
		return &appSchedState{
			timeline: tl,
			online:   online,
			taskOf:   make(map[string]string),
			tokenOf:  make(map[string]string),
		}, nil
	})
}

func (s *Server) nextTaskID() string {
	return "task-" + strconv.FormatInt(s.taskSeq.Add(1), 10)
}

// refuse builds a refusal Ack.
func refuse(code int, format string, args ...interface{}) *wire.Ack {
	return &wire.Ack{OK: false, Code: code, Message: fmt.Sprintf(format, args...)}
}

// handleParticipate is the barcode-scan path: verify the user is really at
// the target place, create the task, re-plan, and hand back this user's
// schedule with the app's Lua script.
func (s *Server) handleParticipate(ctx context.Context, msg *wire.Participate) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if msg.UserID == "" || msg.Token == "" {
		return refuse(400, "participation needs user id and token"), nil
	}
	if msg.Budget <= 0 {
		return refuse(400, "participation needs a positive sensing budget"), nil
	}
	app, err := s.db.App(msg.AppID)
	if err != nil {
		return refuse(404, "unknown application %s", msg.AppID), nil
	}
	// Geofence verification (the Participation Manager's truthfulness
	// check): the claimed location must be inside the app's radius.
	claimed := geo.Point{Lat: msg.Loc.Lat, Lon: msg.Loc.Lon, Alt: msg.Loc.Alt}
	anchor := geo.Point{Lat: app.Lat, Lon: app.Lon}
	if d := geo.Distance(claimed, anchor); d > app.RadiusM {
		return refuse(403, "location check failed: %.0f m from %s (limit %.0f m)",
			d, app.Place, app.RadiusM), nil
	}
	// Refuse double participation.
	if _, err := s.db.ActiveParticipationByUser(msg.AppID, msg.UserID); err == nil {
		return refuse(409, "user %s already participating in %s", msg.UserID, msg.AppID), nil
	}

	now := s.now()
	st, err := s.schedState(app, now)
	if err != nil {
		return nil, err
	}
	// Every refusal from here on comes before any row is written, or the
	// stranded waiting task would block every later scan. The scheduler
	// keeps whoever joined this period, departed or not, and refuses them
	// a second time.
	if st.online.Known(msg.UserID) {
		return refuse(409, "user %s already participated in %s this period", msg.UserID, msg.AppID), nil
	}
	leave := st.timeline.End()
	if msg.LeaveAfterSec > 0 {
		until := now.Add(time.Duration(msg.LeaveAfterSec) * time.Second)
		if until.Before(leave) {
			leave = until
		}
	}
	// A scan after the period's last instant has no presence window
	// [now, leave] for the scheduler to plan over.
	if leave.Before(now) {
		return refuse(410, "sensing period of %s ended at %s", msg.AppID, leave.UTC().Format(time.RFC3339)), nil
	}
	// Auto-register unknown users (User Info Manager).
	if _, err := s.db.User(msg.UserID); err != nil {
		if putErr := s.db.PutUser(store.User{ID: msg.UserID, Name: msg.UserID, Token: msg.Token}); putErr != nil {
			return nil, putErr
		}
	}
	// Persist the period anchor so a restarted server rebuilds this app's
	// timeline on the same grid (idempotent after the first participant).
	if err := s.db.PutAnchor(app.ID, st.timeline.Start()); err != nil {
		return nil, err
	}
	// The task counter is in-memory; after a restart (or when several
	// servers share one store) it can lag the IDs already persisted, so
	// skip over duplicates until an unused ID is found.
	var taskID string
	for {
		taskID = s.nextTaskID()
		err := s.db.PutParticipation(store.Participation{
			TaskID:  taskID,
			UserID:  msg.UserID,
			Token:   msg.Token,
			AppID:   msg.AppID,
			Budget:  msg.Budget,
			Status:  store.TaskWaiting,
			Joined:  now,
			LeaveBy: leave,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, store.ErrDuplicate) {
			return nil, err
		}
	}
	st.plan.Lock()
	plan, err := st.online.Join(now, schedule.Participant{
		UserID: msg.UserID,
		Arrive: now,
		Leave:  leave,
		Budget: msg.Budget,
	})
	if err != nil {
		st.plan.Unlock()
		return refuse(500, "scheduling failed: %v", err), nil
	}
	st.mu.Lock()
	st.taskOf[msg.UserID] = taskID
	st.tokenOf[msg.UserID] = msg.Token
	st.mu.Unlock()
	s.met.replans.Inc()
	err = s.distributePlan(app, st, plan)
	st.plan.Unlock()
	if err != nil {
		return nil, err
	}
	if err := s.db.UpdateParticipation(taskID, func(p *store.Participation) {
		p.Status = store.TaskRunning
	}); err != nil {
		return nil, err
	}
	payload, err := wire.Encode(s.storedSchedule(app, taskID, msg.UserID))
	if err != nil {
		return nil, err
	}
	return &wire.Ack{OK: true, Code: 200, Message: "scheduled", Payload: payload}, nil
}

// distributePlan stores the fresh schedule of every member whose instants
// moved and pushes it to their phone (the paper's GCM path). A member the
// replan left where they were keeps their stored row and hears nothing:
// the store ends up holding what rewriting every row would leave, and the
// WAL is spared the records that would only repeat it. Members go in
// user-ID order, so the same ops log the same bytes. The caller holds
// st.plan from before the replan that made plan.
func (s *Server) distributePlan(app store.Application, st *appSchedState, plan *schedule.Plan) error {
	if s.replanned != nil {
		s.replanned()
	}
	users := make([]string, 0, len(plan.Assignments))
	for userID := range plan.Assignments {
		users = append(users, userID)
	}
	slices.Sort(users)
	for _, userID := range users {
		taskID, token, ok := st.member(userID)
		if !ok {
			continue
		}
		instants := plan.Assignments[userID].Instants
		// Grow leaves a member with no instants a nil AtUnix, as appending
		// always did.
		row := store.ScheduleRow{TaskID: taskID, AppID: app.ID, UserID: userID,
			AtUnix: slices.Grow([]int64(nil), len(instants))}
		for _, i := range instants {
			row.AtUnix = append(row.AtUnix, st.timeline.Time(i).Unix())
		}
		if stored, err := s.db.Schedule(taskID); err == nil && slices.Equal(stored.AtUnix, row.AtUnix) {
			continue
		}
		if err := s.db.PutSchedule(row); err != nil {
			return err
		}
		if s.push != nil {
			// Best effort: unreachable phones will poll eventually. A
			// stream-connected phone gets the fresh schedule itself pushed
			// down its session, saving the wake-then-ping round trip; a
			// push failure falls back to the classic "ping home" nudge.
			sched := &wire.Schedule{TaskID: taskID, AppID: app.ID, UserID: userID, Script: app.Script, AtUnix: row.AtUnix}
			if s.push.PushMessage(token, sched) != nil {
				_ = s.push.Notify(token)
			}
		}
	}
	return nil
}

// storedSchedule assembles the wire.Schedule for one task from its stored
// row plus the app's script.
func (s *Server) storedSchedule(app store.Application, taskID, userID string) *wire.Schedule {
	// A task no plan has assigned anything yet has no row: its schedule is
	// empty.
	row, _ := s.db.Schedule(taskID)
	return &wire.Schedule{
		TaskID: taskID,
		AppID:  app.ID,
		UserID: userID,
		Script: app.Script,
		AtUnix: row.AtUnix,
	}
}

// encodeBufs recycles the buffers ingest encodes report bodies into.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// handleDataUpload lands the binary blob in the database untouched (the
// Message Handler "will directly store the binary message body into the
// database, which will be processed later by the Data Processor") and
// records executed measurements for budget accounting.
func (s *Server) handleDataUpload(ctx context.Context, msg *wire.DataUpload) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.db.Participation(msg.TaskID)
	if err != nil {
		s.met.ingestRejected.Inc()
		return refuse(404, "unknown task %s", msg.TaskID), nil
	}
	if p.UserID != msg.UserID || p.AppID != msg.AppID {
		s.met.ingestRejected.Inc()
		return refuse(403, "upload does not match task %s", msg.TaskID), nil
	}
	if err := checkUpload(msg); err != nil {
		s.met.ingestRejected.Inc()
		return refuse(400, "malformed report: %v", err), nil
	}
	s.met.ingestReports.Inc()
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	raw, err := wire.AppendEncode((*buf)[:0], msg)
	if err != nil {
		return nil, err
	}
	*buf = raw // Ingest copies the body it stores
	// Idempotent ingest: a ReportID already in the app's dedup window is a
	// retransmission of a report whose ack got lost. Ack it again so the
	// phone stops resending, but store and budget-charge nothing. Ingest
	// decides freshness, logs the mark and the body as one WAL record on
	// durable stores, and applies both — so a crash can never ack this
	// report without having persisted it. The dedup decision gets its own
	// span so a trace shows whether a given attempt stored the report or
	// hit the window.
	requestID := obs.RequestIDFrom(ctx)
	res, err := s.db.Ingest(msg.AppID, [][]byte{raw}, store.IngestOptions{
		Received:  s.now(),
		RequestID: string(requestID),
		ReportIDs: []string{msg.ReportID},
	})
	if err != nil {
		return nil, err
	}
	fresh := res.Stored == 1
	if s.obsv != nil {
		sp := s.obsv.StartSpanID(requestID, "server.dedup")
		sp.Annotate("report_id", msg.ReportID)
		sp.Annotate("duplicate", strconv.FormatBool(!fresh))
		sp.End()
	}
	if !fresh {
		s.met.ingestDuplicates.Inc()
		return &wire.Ack{OK: true, Code: 200, Message: "duplicate"}, nil
	}
	s.met.ingestAccepted.Inc()
	s.markDirty(msg.AppID)

	// Budget accounting: each distinct measurement timestamp consumes one
	// unit of the user's budget.
	if st := s.states.get(msg.AppID); st != nil {
		// Exhausted budgets are refused quietly; the data is kept.
		_, _ = st.online.RecordExecutions(msg.UserID, uploadInstants(nil, st.timeline, msg))
	}
	return &wire.Ack{OK: true, Code: 200, Message: "stored"}, nil
}

// uploadInstants collapses a report's measurement timestamps onto its
// distinct timeline instants, ascending, reusing buf's storage. Each
// distinct instant consumes one unit of budget and RecordExecutions stops
// at the budget, so the order decides which instants a short budget pays
// for: the earliest, in the live run and in its recovery alike.
func uploadInstants(buf []int, tl *coverage.Timeline, msg *wire.DataUpload) []int {
	n := len(msg.Track)
	for _, series := range msg.Series {
		n += len(series.Samples)
	}
	instants := slices.Grow(buf[:0], n)
	for _, series := range msg.Series {
		for _, smp := range series.Samples {
			instants = append(instants, tl.Index(time.UnixMilli(smp.AtUnixMilli).UTC()))
		}
	}
	for _, gp := range msg.Track {
		instants = append(instants, tl.Index(time.UnixMilli(gp.AtUnixMilli).UTC()))
	}
	slices.Sort(instants)
	return slices.Compact(instants)
}

// HandleReportBatch is the coalesced ingest path: it lands a burst of
// reports with per-app amortization — one participation check per distinct
// task, one upload-bucket lock acquisition and one WAL record per app, apps
// in the order the batch first names them. Reports for different apps
// inside one batch still land in their own shards, so two batches for
// different apps never contend. Individual bad reports are skipped, not
// fatal: the Ack reports accepted/total (Code 200 all accepted, 207
// partial, 400 none).
func (s *Server) HandleReportBatch(ctx context.Context, msg *wire.DataUploadBatch) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(msg.Uploads) == 0 {
		return refuse(400, "empty report batch"), nil
	}
	if len(msg.Uploads) > wire.MaxBatchReports {
		return refuse(413, "batch of %d exceeds %d reports", len(msg.Uploads), wire.MaxBatchReports), nil
	}
	requestID := string(obs.RequestIDFrom(ctx))
	now := s.now()
	// Group report indices per app, preserving arrival order within an app;
	// apps keeps the groups in first-named order, so the same batch always
	// logs the same records in the same order.
	byApp := make(map[string][]int)
	var apps []string
	for i := range msg.Uploads {
		appID := msg.Uploads[i].AppID
		if _, ok := byApp[appID]; !ok {
			apps = append(apps, appID)
		}
		byApp[appID] = append(byApp[appID], i)
	}
	// Ingest counters accumulate locally and flush once per batch: a
	// 4096-report burst pays three atomic adds, not thousands. The defer
	// keeps the flush on the encode-error exit too.
	var nReports, nRejected, nDuplicates int64
	defer func() {
		s.met.ingestReports.Add(nReports)
		s.met.ingestRejected.Add(nRejected)
		s.met.ingestDuplicates.Add(nDuplicates)
	}()
	accepted := 0
	taskOK := make(map[string]bool, len(msg.Uploads))
	// Every report of the batch is encoded into one reused buffer; Ingest
	// copies the bodies it stores.
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	for _, appID := range apps {
		idxs := byApp[appID]
		st := s.states.get(appID)
		enc, ends := (*buf)[:0], make([]int, 0, len(idxs))
		ids := make([]string, 0, len(idxs))
		ups := make([]*wire.DataUpload, 0, len(idxs))
		for _, i := range idxs {
			up := &msg.Uploads[i]
			// Cache keyed on the full claimed identity so a batch cannot
			// smuggle a second user onto an already-verified task.
			key := up.TaskID + "\x00" + up.UserID + "\x00" + up.AppID
			ok, seen := taskOK[key]
			if !seen {
				p, err := s.db.Participation(up.TaskID)
				ok = err == nil && p.UserID == up.UserID && p.AppID == up.AppID
				taskOK[key] = ok
			}
			if !ok || checkUpload(up) != nil {
				nRejected++
				continue
			}
			nReports++
			var err error
			if enc, err = wire.AppendEncode(enc, up); err != nil {
				return nil, err
			}
			ends = append(ends, len(enc))
			ids = append(ids, up.ReportID)
			ups = append(ups, up)
		}
		*buf = enc
		bodies, start := make([][]byte, len(ends)), 0
		for k, end := range ends {
			bodies[k], start = enc[start:end:end], end
		}
		// One Ingest per app: dedup decisions, window marks and stored
		// bodies land atomically (one WAL record on durable stores), under
		// one dedup-lock plus one bucket-lock acquisition.
		res, err := s.db.Ingest(appID, bodies, store.IngestOptions{
			Received: now, RequestID: requestID, ReportIDs: ids,
		})
		if err != nil {
			return nil, err
		}
		if res.Stored > 0 {
			s.markDirty(appID)
		}
		s.met.ingestAccepted.Add(int64(res.Stored))
		var instants []int
		for k, up := range ups {
			accepted++
			// Replays (lost-ack retransmissions) count as accepted — the
			// phone needs an OK to stop resending — but are not re-stored
			// and not re-charged. The batch path counts dedup hits but
			// records no per-report span: a 4096-report burst must stay a
			// few atomic adds, not thousands of ring-buffer writes.
			if !res.Fresh[k] {
				nDuplicates++
				continue
			}
			if st != nil {
				// Charged report by report, in sequence order — the order
				// recovery replays them in. Exhausted budgets are refused
				// quietly; the data is kept.
				instants = uploadInstants(instants, st.timeline, up)
				_, _ = st.online.RecordExecutions(up.UserID, instants)
			}
		}
	}
	switch {
	case accepted == 0:
		return refuse(400, "no report in batch of %d matched an active task", len(msg.Uploads)), nil
	case accepted < len(msg.Uploads):
		return &wire.Ack{OK: true, Code: 207,
			Message: fmt.Sprintf("stored %d/%d", accepted, len(msg.Uploads))}, nil
	default:
		return &wire.Ack{OK: true, Code: 200,
			Message: fmt.Sprintf("stored %d/%d", accepted, len(msg.Uploads))}, nil
	}
}

// handleLeave marks the user finished and re-plans without them (§II-B: a
// user's status becomes "finished" when they leave the target place).
func (s *Server) handleLeave(ctx context.Context, msg *wire.Leave) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.db.ActiveParticipationByUser(msg.AppID, msg.UserID)
	if err != nil {
		return refuse(404, "no active task for %s in %s", msg.UserID, msg.AppID), nil
	}
	// One reading: recovery replans this leave as of the stored row.Left.
	now := s.now()
	if err := s.db.UpdateParticipation(p.TaskID, func(row *store.Participation) {
		row.Status = store.TaskFinished
		row.Left = now
	}); err != nil {
		return nil, err
	}
	if st := s.states.get(msg.AppID); st != nil {
		app, err := s.db.App(msg.AppID)
		if err != nil {
			return nil, err
		}
		st.plan.Lock()
		defer st.plan.Unlock()
		st.mu.Lock()
		delete(st.taskOf, msg.UserID)
		delete(st.tokenOf, msg.UserID)
		st.mu.Unlock()
		if plan, err := st.online.Leave(now, msg.UserID); err == nil {
			s.met.replans.Inc()
			if err := s.distributePlan(app, st, plan); err != nil {
				return nil, err
			}
		}
	}
	return &wire.Ack{OK: true, Code: 200, Message: "goodbye"}, nil
}

// handlePing is the GCM rendezvous: a phone woken via push pings home with
// its token; the server replies with the latest schedule for the phone's
// active task.
func (s *Server) handlePing(ctx context.Context, msg *wire.Ping) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	user, err := s.db.UserByToken(msg.Token)
	if err != nil {
		return refuse(404, "unknown device token"), nil
	}
	// Find the user's active participation (any app). The schedule row is
	// read from the database so it survives server restarts.
	app, p, err := s.db.ActiveTaskOfUser(user.ID)
	if err != nil {
		return &wire.Ack{OK: true, Code: 204, Message: "no active task"}, nil
	}
	payload, err := wire.Encode(s.storedSchedule(app, p.TaskID, p.UserID))
	if err != nil {
		return nil, err
	}
	return &wire.Ack{OK: true, Code: 200, Message: "schedule", Payload: payload}, nil
}

// handleRankRequest runs the Personalizable Ranker over the category's
// current columnar snapshot (snapshots.go). The hot path — fresh
// snapshot, cached profile — is an atomic load, a few counter compares,
// one key build, and a map hit; no processor run, no store reads, no
// solver. A bounded request (TopK > 0) solves only the leading clean-cut
// blocks of the aggregation. An uncached solve is always the cold solve,
// so the answer depends only on the epoch's matrix, the profile and k.
func (s *Server) handleRankRequest(ctx context.Context, msg *wire.RankRequest) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stale, tooStale := s.replicaStale()
	if tooStale {
		return refuse(503, "replica lag exceeds the staleness bound"), nil
	}
	snap, err := s.freshSnapshot(msg.Category)
	if err != nil {
		if errors.Is(err, errNoRankData) {
			return refuse(404, "no data for category %s: %v", msg.Category, err), nil
		}
		return nil, err
	}
	prof := ranking.Profile{Name: msg.UserID, Prefs: make(map[string]ranking.Preference, len(msg.Prefs))}
	for _, p := range msg.Prefs {
		prof.Prefs[p.Feature] = ranking.Preference{
			Kind:   ranking.PrefKind(p.Kind),
			Value:  p.Value,
			Weight: p.Weight,
		}
	}
	k := msg.TopK
	cs := s.serving(msg.Category)
	res, err := cs.cache.getOrCompute(snap.epoch, snap.profileKey(prof.Prefs, k), func() (*ranking.Result, error) {
		return snap.cranker.RankTopK(prof, k, nil)
	})
	if err != nil {
		return refuse(400, "ranking failed: %v", err), nil
	}
	resp := buildRankResponse(msg.Category, snap, res, k)
	resp.Stale = stale
	return resp, nil
}

// FeatureMatrix assembles the ranking matrix H for a category from the
// feature table (the Personalizable Ranker's read path; a snapshot rebuild
// calls it for a category's first epoch and whenever the previous epoch
// cannot be patched — see rebuildSnapshot): one lookup of each place's
// rows rather than places×features store lookups, which matters at 10k
// places. Rows are the category's places in the ID order of their first
// applications, each listed once; a place without every catalog feature
// is skipped.
func (s *Server) FeatureMatrix(category string) (*ranking.Matrix, error) {
	m, _, err := s.featureMatrix(category)
	return m, err
}

// featureMatrix is FeatureMatrix with the map from the rows of the
// category's feature table to the matrix's (Store.FeatureValues).
func (s *Server) featureMatrix(category string) (*ranking.Matrix, []int32, error) {
	catalog, ok := s.catalog[category]
	if !ok {
		return nil, nil, fmt.Errorf("server: no feature catalog for category %q", category)
	}
	names := make([]string, len(catalog))
	for j, f := range catalog {
		names[j] = f.Name
	}
	rowOf, places, values := s.db.FeatureValues(category, names)
	if len(places) == 0 {
		return nil, nil, fmt.Errorf("server: no fully sensed places in category %q", category)
	}
	return &ranking.Matrix{Features: catalog, Places: places, Values: values}, rowOf, nil
}

// ExecutedInstants returns the app's recorded measurement instants, sorted
// (diagnostics; the chaos suite compares faulty vs fault-free coverage).
func (s *Server) ExecutedInstants(appID string) []int {
	st := s.states.get(appID)
	if st == nil {
		return nil
	}
	return st.online.ExecutedInstants()
}

// BudgetLedger returns the app's per-user budget accounting (diagnostics).
func (s *Server) BudgetLedger(appID string) map[string]schedule.UserLedger {
	st := s.states.get(appID)
	if st == nil {
		return nil
	}
	return st.online.Ledger()
}

// PlanSnapshot returns the current plan coverage for an app (diagnostics).
func (s *Server) PlanSnapshot(appID string) (*schedule.Plan, error) {
	st := s.states.get(appID)
	if st == nil {
		return nil, fmt.Errorf("server: no scheduling state for %s", appID)
	}
	return st.online.Plan(), nil
}
