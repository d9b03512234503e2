package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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
	db, err := s.storage.Open()
	if err != nil {
		return err
	}
	s.db = db
	s.processor.db = db
	return s.recoverState()
}

// Close shuts the storage backend down (final checkpoint, clean WAL
// close). No-op for servers constructed with Config.DB.
func (s *Server) Close() error {
	if s.storage == nil {
		return nil
	}
	return s.storage.Close()
}

// Kill abandons the storage backend the way a crash would — no final
// checkpoint, no WAL flush. The chaos suite uses it to prove recovery.
func (s *Server) Kill() {
	if s.storage != nil {
		s.storage.Kill()
	}
}

// recoverState rebuilds every in-memory structure a restart loses.
// Apps without a persisted anchor (data from before anchors existed)
// keep the legacy behavior: schedule rows still serve reads, and a new
// timeline is anchored at the next participation.
func (s *Server) recoverState() error {
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
	for _, app := range s.db.Apps() {
		st := s.states.get(app.ID)
		// lastEvent is the join or leave of the last row restored: one
		// replan as of it, over everybody restored, is the plan a replan
		// per row would end on.
		var lastEvent time.Time
		restored := false
		for _, p := range s.db.ParticipationsByApp(app.ID) {
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
			restored = true
			if finished {
				lastEvent = p.Left
				continue
			}
			lastEvent = p.Joined
			st.mu.Lock()
			st.taskOf[p.UserID] = p.TaskID
			st.tokenOf[p.UserID] = p.Token
			st.mu.Unlock()
		}
		if restored {
			if _, err := st.online.Replan(lastEvent); err != nil {
				return fmt.Errorf("server: replanning %s: %w", app.ID, err)
			}
		}
	}
	// Never reissue a task ID that is already in the store.
	if cur := s.taskSeq.Load(); maxTask > cur {
		s.taskSeq.Store(maxTask)
	}
	// Charge replay: walking the uploads in global sequence order repeats
	// the original budget accounting exactly — RecordExecutions is
	// idempotent per (user, instant) and caps at the budget in order.
	for _, up := range s.db.AllUploads() {
		m, err := wire.Decode(up.Body)
		if err != nil {
			continue // the processor counts decode failures; skip here
		}
		du, ok := m.(*wire.DataUpload)
		if !ok {
			continue
		}
		if st := s.states.get(du.AppID); st != nil {
			_, _ = st.online.RecordExecutions(du.UserID, uploadInstants(st.timeline, du))
		}
	}
	// Refold the feature matrix from the full upload history (the
	// processor's accumulators died with the old process).
	s.db.RequeueUploads()
	s.processor.Process()
	return nil
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
