package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sor"
	"sor/internal/wire"
)

// ingestWorkload: two device stream sessions → durable leader ← one
// pulling replica. The op is one single-report DataUpload (2 series × 4
// readings, unique ReportID) acked. Per-request overhead dominates:
// session framing, wire codec, dispatch, dedup, WAL append, replication
// shipping. The rank core, the scheduler and the router do nothing here.
type ingestWorkload struct {
	cfg     *config
	leader  *node
	replica *node
	clients [nClients]sender
	tasks   [nClients][]string // task id per app, for the client's own user
	seq     [nClients]int      // next report sequence; owned by the client's goroutine
	lost    [nClients]map[int]bool
	lag     []float64     // replica lag in records, polled in traced runs
	catchup time.Duration // last ack → replica caught up
}

var ingestFeatures = benchFeatures[:2]

func ingestUser(c, app int) string { return fmt.Sprintf("i%d-%d", c, app) }

func (w *ingestWorkload) leaders() []*node { return []*node{w.leader} }

// upload builds client c's report number seq. Apps rotate so the per-app
// dedup windows fill evenly.
func (w *ingestWorkload) upload(c, seq int) *wire.DataUpload {
	app := seq % w.cfg.sz.ingestApps
	r := at(w.cfg.seed, "ingest", c<<40|seq)
	up := report(r, w.tasks[c][app], catA, ingestUser(c, app), strconv.Itoa(c)+"-"+strconv.Itoa(seq),
		app, w.cfg.sz.ingestApps, ingestFeatures, 4, benchEpoch+int64(seq%1000)*10_000)
	return &up
}

func (w *ingestWorkload) op(o *opCtx, c int) error {
	seq := w.seq[c]
	w.seq[c]++
	_, err := expectAck(o.send(w.clients[c], w.upload(c, seq)))
	if err != nil {
		w.lost[c][seq] = true
	}
	return err
}

func (w *ingestWorkload) build(cfg *config, b *bed) error {
	w.cfg = cfg
	var err error
	if w.leader, err = b.startMember(memberSpec{name: "leader", role: sor.RoleLeader,
		http: true, stream: true, parent: spanClient, catalog: benchCatalog()}); err != nil {
		return err
	}
	if w.replica, err = b.startMember(memberSpec{name: "replica", role: sor.RoleReplica,
		leader: w.leader, catalog: benchCatalog()}); err != nil {
		return err
	}
	srv := w.leader.server()
	for p := 0; p < cfg.sz.ingestApps; p++ {
		if err := srv.CreateApp(benchApp(catA, p)); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for c := 0; c < nClients; c++ {
		if w.clients[c], err = b.streamClient(w.leader, fmt.Sprintf("device-%d", c)); err != nil {
			return err
		}
		w.lost[c] = make(map[int]bool)
		w.tasks[c] = make([]string, cfg.sz.ingestApps)
		for p := range w.tasks[c] {
			user := ingestUser(c, p)
			if w.tasks[c][p], err = participate(ctx, w.clients[c], &wire.Participate{UserID: user,
				Token: "tok-" + user, AppID: appID(catA, p), Loc: appLoc(p), Budget: joinBudget}); err != nil {
				return err
			}
		}
	}
	half := cfg.sz.ingestPrefill / nClients / 2
	if err := drive(ctx, w, half); err != nil {
		return err
	}
	if err := w.leader.running().Checkpoint(); err != nil {
		return err
	}
	return drive(ctx, w, half)
}

// participate joins a user and returns the task id of its schedule.
func participate(ctx context.Context, s sender, msg *wire.Participate) (string, error) {
	sched, err := scheduleOf(expectAck(s.Send(ctx, msg)))
	if err != nil {
		return "", fmt.Errorf("participate %s: %w", msg.UserID, err)
	}
	return sched.TaskID, nil
}

// scheduleOf decodes the Schedule a participation ack carries.
func scheduleOf(ack *wire.Ack, err error) (*wire.Schedule, error) {
	if err != nil {
		return nil, err
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		return nil, fmt.Errorf("ack payload: %w", err)
	}
	sched, ok := inner.(*wire.Schedule)
	if !ok {
		return nil, fmt.Errorf("ack payload is %s, want schedule", inner.Type())
	}
	return sched, nil
}

func (w *ingestWorkload) first(o *opCtx) error { return w.op(o, 0) }

func (w *ingestWorkload) warm(ctx context.Context) error {
	return drive(ctx, w, w.cfg.sz.ingestWarm/nClients)
}

func (w *ingestWorkload) survived() error { return w.holdsAcked(w.leader) }

// holdsAcked checks the node stores exactly the acked ReportID set: every
// acked report once, and nothing that was never sent. (A report whose ack
// was lost may be stored or not; both are exactly-once.)
func (w *ingestWorkload) holdsAcked(n *node) error {
	var held [nClients][]bool
	for c := range held {
		held[c] = make([]bool, w.seq[c])
	}
	for _, raw := range n.server().DB().AllUploads() {
		m, err := wire.Decode(raw.Body)
		if err != nil {
			return fmt.Errorf("%s: stored upload %d does not decode: %w", n.spec.Name, raw.Seq, err)
		}
		up, ok := m.(*wire.DataUpload)
		if !ok {
			return fmt.Errorf("%s: stored upload %d is %s", n.spec.Name, raw.Seq, m.Type())
		}
		cs, ss, _ := strings.Cut(up.ReportID, "-")
		c, err1 := strconv.Atoi(cs)
		seq, err2 := strconv.Atoi(ss)
		if err1 != nil || err2 != nil || c < 0 || c >= nClients || seq < 0 || seq >= len(held[c]) {
			return fmt.Errorf("%s: holds report %q, which no client sent", n.spec.Name, up.ReportID)
		}
		if held[c][seq] {
			return fmt.Errorf("%s: holds report %q twice", n.spec.Name, up.ReportID)
		}
		held[c][seq] = true
	}
	for c := range held {
		for seq, ok := range held[c] {
			if !ok && !w.lost[c][seq] {
				return fmt.Errorf("%s: lost acked report %d-%d", n.spec.Name, c, seq)
			}
		}
	}
	return nil
}

// catchUp waits for the replica to apply the leader's whole log.
func (w *ingestWorkload) catchUp() (time.Duration, error) {
	t0 := time.Now()
	want := w.leader.server().DB().AppliedLSN()
	for time.Since(t0) < 60*time.Second {
		if srv := w.replica.server(); srv != nil && srv.DB().AppliedLSN() >= want {
			return time.Since(t0), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("replica stuck at LSN %d, leader at %d", w.replica.server().DB().AppliedLSN(), want)
}

func (w *ingestWorkload) verify(ctx context.Context) error {
	var err error
	if w.catchup, err = w.catchUp(); err != nil {
		return err
	}
	if err := w.holdsAcked(w.leader); err != nil {
		return err
	}
	if l, r := w.leader.server().DB().AppliedLSN(), w.replica.server().DB().AppliedLSN(); l != r {
		return fmt.Errorf("replica applied LSN %d, leader %d", r, l)
	}
	if err := w.holdsAcked(w.replica); err != nil {
		return err
	}
	// Every ack of the measured phase must outlive a process kill too.
	w.leader.crash()
	if err := w.leader.reopen(); err != nil {
		return err
	}
	return w.holdsAcked(w.leader)
}

func (w *ingestWorkload) digest() (string, error) {
	var msgs []wire.Message
	for c := 0; c < nClients; c++ {
		for seq := 0; seq < digestOps; seq++ {
			msgs = append(msgs, w.upload(c, seq))
		}
	}
	return digestOf(msgs)
}

// sample polls how many records the replica is behind (traced runs).
func (w *ingestWorkload) sample() {
	if r := w.replica.server(); r != nil {
		w.lag = append(w.lag, float64(w.leader.server().DB().AppliedLSN())-float64(r.DB().AppliedLSN()))
	}
}

func (w *ingestWorkload) layers(e *probeEnv, lv *layerValues) error {
	lag := sortedCopy(w.lag)
	lv.set("replica.lag_records_p50", quantile(lag, 0.5), fmt.Sprintf("%d polls, 100 ms apart", len(lag)))
	lv.set("replica.lag_records_max", quantile(lag, 1), "")
	lv.set("replica.catchup_ms", float64(w.catchup)/float64(time.Millisecond), "last ack → replica at the leader's LSN")
	return nil
}
