package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/wire"
)

// Open recovers the store from the configured storage backend and
// rebuilds the server's in-memory state from it: per-app timelines on
// their persisted anchors, scheduler membership from the participation
// table, budget ledgers by replaying the stored uploads in sequence
// order, and the feature matrix by refolding the full upload history.
// Servers constructed with Config.DB are open already.
func (s *Server) Open() error {
	if s.storage == nil {
		return errors.New("server: no storage backend configured")
	}
	if s.db != nil {
		return errors.New("server: already open")
	}
	t0 := time.Now()
	db, err := s.storage.Open()
	if err != nil {
		return err
	}
	s.met.recoverMs[stageStoreOpen].Observe(millis(time.Since(t0)))
	s.db = db
	s.processor.db = db
	return s.recoverState()
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Close shuts the storage backend down (final checkpoint, clean WAL
// close). No-op for servers constructed with Config.DB.
func (s *Server) Close() error {
	if s.storage == nil {
		return nil
	}
	return s.storage.Close()
}

// Kill abandons the storage backend the way a crash would — no final
// checkpoint, no WAL flush — and stops the processing loop without its
// final drain. The chaos suite uses it to prove recovery.
func (s *Server) Kill() {
	s.killed.Store(true)
	if s.storage != nil {
		s.storage.Kill()
	}
}

// recoverState rebuilds every in-memory structure a restart loses.
// Apps without a persisted anchor (data from before anchors existed)
// keep the legacy behavior: schedule rows still serve reads, and a new
// timeline is anchored at the next participation.
//
// Memberships are restored serially, in one pass over the participations
// in (app, task) ID order (orphaning a waiting task is a store write).
// The stored upload history is then drained once and split by app, and
// each app is one job on runtime.GOMAXPROCS(0) workers: its one replan,
// then each of its uploads in sequence order decoded once, charged and
// folded, then its feature extraction. Only the feature upserts — WAL
// records — run serially, in app-ID order, so recovery logs the same
// bytes however the workers interleave.
func (s *Server) recoverState() error {
	t0 := time.Now()
	for _, ar := range s.db.Anchors() {
		app, err := s.db.App(ar.AppID)
		if err != nil {
			continue // anchor for a vanished app; nothing to rebuild
		}
		if _, err := s.schedState(app, time.Unix(ar.AnchorUnix, 0).UTC()); err != nil {
			return fmt.Errorf("server: recovering %s: %w", ar.AppID, err)
		}
	}
	var maxTask int64
	// replanAt holds, per app with a restored membership, its last join or
	// leave — the latest of its rows' events, since task-ID order is not
	// event order: one replan as of it, over everybody restored, is the
	// plan the live run's last replan made.
	replanAt := make(map[string]time.Time)
	for _, p := range s.db.Participations() {
		st := s.states.get(p.AppID)
		if n := taskNumber(p.TaskID); n > maxTask {
			maxTask = n
		}
		if st == nil || p.Status == store.TaskError {
			continue
		}
		if p.Status == store.TaskWaiting {
			// The row was persisted but the scheduler join never
			// committed (crash mid-participate, or a refused join).
			// The phone never got a schedule; orphan the task so the
			// user can scan again.
			_ = s.db.UpdateParticipation(p.TaskID, func(row *store.Participation) {
				row.Status = store.TaskError
			})
			continue
		}
		leave := p.LeaveBy
		if leave.IsZero() {
			leave = st.timeline.End()
		}
		finished := p.Status == store.TaskFinished
		if err := st.online.Restore(schedule.Participant{
			UserID: p.UserID,
			Arrive: p.Joined,
			Leave:  leave,
			Budget: p.Budget,
		}, finished); err != nil {
			return fmt.Errorf("server: rejoining %s: %w", p.TaskID, err)
		}
		event := p.Joined
		if finished {
			event = p.Left
		}
		if at, ok := replanAt[p.AppID]; !ok || event.After(at) {
			replanAt[p.AppID] = event
		}
		if finished {
			continue
		}
		st.mu.Lock()
		st.taskOf[p.UserID] = p.TaskID
		st.tokenOf[p.UserID] = p.Token
		st.mu.Unlock()
	}
	// Never reissue a task ID that is already in the store.
	if cur := s.taskSeq.Load(); maxTask > cur {
		s.taskSeq.Store(maxTask)
	}
	var spent [numRecoverStages]time.Duration
	spent[stageReplan] = time.Since(t0)

	t1 := time.Now()
	jobs := recoveryJobs(s.db.DrainHistory(), replanAt)
	for i := range jobs {
		s.met.recoveredUploads.Add(int64(len(jobs[i].rows)))
	}
	spent[stageRefold] = time.Since(t1)

	s.runRecoveryJobs(jobs)
	for i := range jobs {
		if err := jobs[i].err; err != nil {
			return err
		}
		for stage, d := range jobs[i].spent {
			spent[stage] += d
		}
	}

	t2 := time.Now()
	p := s.processor
	for i := range jobs {
		j := &jobs[i]
		if j.folded == 0 {
			continue
		}
		p.met.refreshes.Inc()
		// Refresh failures for one app must not block the others.
		if j.extractErr == nil {
			_ = p.upsertFeatures(j.app, j.values)
		}
	}
	spent[stageUpsert] = time.Since(t2)
	for stage := stageReplan; stage < numRecoverStages; stage++ {
		s.met.recoverMs[stage].Observe(millis(spent[stage]))
	}
	return nil
}

// recoveryJob is one application's share of recovery: the replan its
// restored membership needs and its stored uploads in sequence order,
// then what its worker extracted for the serial upsert.
type recoveryJob struct {
	appID    string
	replan   bool
	replanAt time.Time
	rows     []store.RawUpload

	err        error // the replan's; fails the recovery
	folded     int
	app        store.Application
	values     []featureValue
	extractErr error
	spent      [numRecoverStages]time.Duration // worker time per stage
}

// recoveryJobs makes one job per app of the drained history, taking each
// app's rows as they are — in sequence order, which is the order charges
// cap at the budget in — and adds the apps that need only their replan.
// Jobs come back in app-ID order.
func recoveryJobs(history []store.AppHistory, replanAt map[string]time.Time) []recoveryJob {
	jobs := make([]recoveryJob, len(history), len(history)+len(replanAt))
	index := make(map[string]int, len(history)+len(replanAt))
	for i, h := range history {
		jobs[i] = recoveryJob{appID: h.AppID, rows: h.Rows}
		index[h.AppID] = i
	}
	for appID, at := range replanAt {
		i, ok := index[appID]
		if !ok {
			i = len(jobs)
			jobs = append(jobs, recoveryJob{appID: appID})
		}
		jobs[i].replan, jobs[i].replanAt = true, at
	}
	slices.SortFunc(jobs, func(a, b recoveryJob) int { return strings.Compare(a.appID, b.appID) })
	return jobs
}

// runRecoveryJobs runs every job on runtime.GOMAXPROCS(0) workers, each
// taking the next unclaimed job until none is left.
func (s *Server) runRecoveryJobs(jobs []recoveryJob) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var instants []int
			var up wire.DataUpload // decode scratch, reused across the worker's jobs
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				instants = s.recoverApp(&jobs[i], &up, instants)
			}
		}()
	}
	wg.Wait()
}

// recoverApp runs one app's job. Apps share no scheduler or accumulator
// state, so jobs for different apps run in parallel; within the app
// everything happens in the order the live run did it — the replan as of
// the last membership event, then each upload's charge and fold in
// sequence order. Each upload is decoded into up, the worker's scratch. It
// returns the instants buffer for the worker's next job.
func (s *Server) recoverApp(j *recoveryJob, up *wire.DataUpload, instants []int) []int {
	st := s.states.get(j.appID)
	t0 := time.Now()
	if j.replan {
		if _, err := st.online.Replan(j.replanAt); err != nil {
			j.err = fmt.Errorf("server: replanning %s: %w", j.appID, err)
			return instants
		}
	}
	t1 := time.Now()
	p := s.processor
	var ad *appData
	for _, raw := range j.rows {
		if !p.decode(raw, up) {
			continue
		}
		// Charge replay: RecordExecutions is idempotent per (user,
		// instant) and caps at the budget in order, so replaying the app's
		// uploads in sequence order repeats the live accounting exactly.
		if st != nil {
			instants = uploadInstants(instants, st.timeline, up)
			_, _ = st.online.RecordExecutions(up.UserID, instants)
		}
		if ad == nil {
			ad = p.appData(j.appID)
		}
		p.foldDecoded(ad, up)
		j.folded++
	}
	p.countFolded(j.folded)
	t2 := time.Now()
	if j.folded > 0 {
		j.app, j.values, j.extractErr = p.extractApp(j.appID)
	}
	j.spent[stageReplan] = t1.Sub(t0)
	j.spent[stageRefold] = t2.Sub(t1)
	j.spent[stageExtract] = time.Since(t2)
	return instants
}

// taskNumber extracts the counter from a "task-N" ID; 0 if it is not one.
func taskNumber(taskID string) int64 {
	num, ok := strings.CutPrefix(taskID, "task-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
