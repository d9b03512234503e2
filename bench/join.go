package main

import (
	"context"
	"fmt"
	"time"

	"sor"
	"sor/internal/wire"
)

// joinWorkload: two device stream sessions → durable leader. The op is
// one Participate or Leave answered, replayed closed-loop from a seeded
// mobility trace (see mobility). This is the paper's first contribution
// end to end: every op is a full coverage-greedy replan of the place it
// touches, and popularity skew makes the hot place's replan the tail.
// Ranking, the processor and the router do nothing here.
type joinWorkload struct {
	cfg     *config
	leader  *node
	clients [nClients]sender
	trace   [nClients]*mobility
	// present is who the harness has joined and not yet left, per client
	// (each client joins users of its own).
	present [nClients]map[string]int // user → place
	probe   string                   // a pre-filled user's device token, for the first request
	sizes   [nClients][]float64      // membership of the place each op touched
}

func (w *joinWorkload) leaders() []*node { return []*node{w.leader} }

func (w *joinWorkload) build(cfg *config, b *bed) error {
	w.cfg = cfg
	var err error
	if w.leader, err = b.startMember(memberSpec{name: "leader", role: sor.RoleLeader,
		stream: true, parent: spanClient, catalog: benchCatalog()}); err != nil {
		return err
	}
	srv := w.leader.server()
	for p := 0; p < cfg.sz.joinApps; p++ {
		if err := srv.CreateApp(benchApp(catA, p)); err != nil {
			return err
		}
	}
	// Pre-fill to the target population, checkpointing midway.
	var head, tail [nClients][]joinOp
	for c := 0; c < nClients; c++ {
		if w.clients[c], err = b.streamClient(w.leader, fmt.Sprintf("device-%d", c)); err != nil {
			return err
		}
		var prefill []joinOp
		w.trace[c], prefill = newMobility(cfg.seed, c, cfg.sz.joinApps, cfg.sz.joinPopulation)
		head[c], tail[c] = prefill[:len(prefill)/2], prefill[len(prefill)/2:]
		if c == 0 {
			w.probe = "tok-" + prefill[0].user
		}
		w.present[c] = make(map[string]int)
	}
	ctx := context.Background()
	if err := w.replay(ctx, head); err != nil {
		return err
	}
	if err := w.leader.running().Checkpoint(); err != nil {
		return err
	}
	return w.replay(ctx, tail)
}

// replay runs each client's ops in order, both clients at once.
func (w *joinWorkload) replay(ctx context.Context, ops [nClients][]joinOp) error {
	return eachClient(func(c int) error {
		for _, op := range ops[c] {
			if err := w.run(plainOp(ctx), c, op); err != nil {
				return err
			}
		}
		return nil
	})
}

// run sends one trace op and checks its answer: a join must come back
// with a schedule of at most budget instants inside the presence window.
func (w *joinWorkload) run(o *opCtx, c int, op joinOp) error {
	sent := time.Now()
	ack, err := expectAck(o.send(w.clients[c], op.message(catA)))
	if err != nil {
		return fmt.Errorf("%v: %w", op, err)
	}
	if op.leave {
		delete(w.present[c], op.user)
		return nil
	}
	w.present[c][op.user] = op.app
	sched, err := scheduleOf(ack, nil)
	if err != nil {
		return err
	}
	if len(sched.AtUnix) > joinBudget {
		return fmt.Errorf("%s scheduled %d instants, budget %d", op.user, len(sched.AtUnix), joinBudget)
	}
	// The server snaps instants to its 10 s grid, so allow one step of
	// slack at either end of [sent, answered + stay].
	const step = 10
	lo, hi := sent.Unix()-step, time.Now().Unix()+op.dwell+step
	for _, at := range sched.AtUnix {
		if at < lo || at > hi {
			return fmt.Errorf("%s scheduled at %d, outside its presence window [%d, %d]", op.user, at, lo, hi)
		}
	}
	return nil
}

func (w *joinWorkload) op(o *opCtx, c int) error {
	op := w.trace[c].next()
	// The other client holds as many members of the place, give or take.
	w.sizes[c] = append(w.sizes[c], float64(nClients*w.trace[c].members[op.app]))
	return w.run(o, c, op)
}

// first pings home with a present member's device token; the answer needs
// the recovered participation table and schedule rows.
func (w *joinWorkload) first(o *opCtx) error {
	_, err := expectAck(o.send(w.clients[0], &wire.Ping{Token: w.probe}))
	return err
}

// survived: every member joined and not yet left must still hold an
// active task.
func (w *joinWorkload) survived() error {
	db := w.leader.server().DB()
	for c := range w.present {
		for user, app := range w.present[c] {
			if _, err := db.ActiveParticipationByUser(appID(catA, app), user); err != nil {
				return fmt.Errorf("member %s of %s: %w", user, appID(catA, app), err)
			}
		}
	}
	return nil
}

func (w *joinWorkload) warm(ctx context.Context) error { return drive(ctx, w, w.cfg.sz.joinWarm) }

func (w *joinWorkload) verify(ctx context.Context) error {
	if err := w.survived(); err != nil {
		return err
	}
	w.leader.crash()
	if err := w.leader.reopen(); err != nil {
		return err
	}
	return w.survived()
}

// digest covers the pre-fill and the head of each client's trace, drawn
// from fresh generators so it does not disturb the ones being replayed.
func (w *joinWorkload) digest() (string, error) {
	var msgs []wire.Message
	for c := 0; c < nClients; c++ {
		m, prefill := newMobility(w.cfg.seed, c, w.cfg.sz.joinApps, w.cfg.sz.joinPopulation)
		for _, op := range prefill {
			msgs = append(msgs, op.message(catA))
		}
		for i := 0; i < digestOps; i++ {
			msgs = append(msgs, m.next().message(catA))
		}
	}
	return digestOf(msgs)
}

func (w *joinWorkload) layers(e *probeEnv, lv *layerValues) error {
	var sizes []float64
	for c := range w.sizes {
		sizes = append(sizes, w.sizes[c]...)
	}
	return e.scheduleProbes(lv, int(median(sizes)))
}
