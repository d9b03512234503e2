package frontend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// BatchSender is the optional coalescing side of a Sender: when several
// reports are pending, the outbox drains them in one DataUploadBatch
// instead of one round-trip each. transport.Client implements it.
type BatchSender interface {
	SendBatch(ctx context.Context, uploads []*wire.DataUpload) (*wire.Ack, error)
}

// outboxEntry is one queued report plus its delivery bookkeeping.
type outboxEntry struct {
	up *wire.DataUpload
	// onResult, if set, is told the report's final fate: delivered true
	// (acked by the server, possibly as a duplicate) or false (refused and
	// dropped). It is never called for overflow drops — the task already
	// finished long before and has no decision to make.
	onResult func(delivered bool, reason string)
}

// OutboxStats counts what the outbox did.
type OutboxStats struct {
	Enqueued        int // reports that entered the outbox
	Delivered       int // reports acked by the server (duplicates count once)
	DroppedOverflow int // oldest reports evicted by the bounded queue
	DroppedRefused  int // reports the server refused (permanent errors)
	DrainPasses     int // drain attempts (single sends and batches alike)
	BatchesSent     int // coalesced DataUploadBatch round-trips
}

// Outbox is the phone's bounded store-and-forward queue (§V's flaky
// cellular/WiFi reality): finished task uploads wait here, each stamped
// with a unique ReportID, until the sensing server acks them. Delivery is
// at-least-once from the device's view; the server's per-app dedup window
// on ReportID turns that into exactly-once storage and budget accounting.
//
// The queue is bounded with a drop-oldest overflow policy: a phone that
// cannot reach the server for a whole scheduling period keeps its newest
// reports (the old ones have usually aged out of the period anyway) and
// counts the evictions instead of growing without limit.
type Outbox struct {
	mu      sync.Mutex
	queue   []*outboxEntry
	cap     int
	stats   OutboxStats
	lastErr string

	// drainMu serializes drain passes so concurrent triggers (task finish,
	// ping wake-up, explicit flush) do not send the same report twice in
	// flight. Re-sends are still safe — the server dedups — just wasteful.
	drainMu sync.Mutex

	delay *transport.Backoff

	met outboxMetrics
}

// outboxMetrics mirror OutboxStats into a shared registry (all nil
// without an observer). The depth gauge is updated with deltas, so a
// fleet of frontends sharing one registry reads as aggregate depth.
type outboxMetrics struct {
	depth           *obs.Gauge
	enqueued        *obs.Counter
	delivered       *obs.Counter
	droppedOverflow *obs.Counter
	droppedRefused  *obs.Counter
	drainPasses     *obs.Counter
	batches         *obs.Counter
}

func newOutboxMetrics(reg *obs.Registry) outboxMetrics {
	return outboxMetrics{
		depth:           reg.Gauge("sor_outbox_depth"),
		enqueued:        reg.Counter("sor_outbox_enqueued_total"),
		delivered:       reg.Counter("sor_outbox_delivered_total"),
		droppedOverflow: reg.Counter("sor_outbox_dropped_overflow_total"),
		droppedRefused:  reg.Counter("sor_outbox_dropped_refused_total"),
		drainPasses:     reg.Counter("sor_outbox_drain_passes_total"),
		batches:         reg.Counter("sor_outbox_batches_total"),
	}
}

// Outbox defaults.
const (
	defaultOutboxCapacity   = 256
	defaultOutboxBackoff    = 50 * time.Millisecond
	defaultOutboxBackoffCap = 5 * time.Second
	maxOutboxBatch          = wire.MaxBatchReports
)

func newOutbox(capacity int, base, cap time.Duration, seed int64) *Outbox {
	return &Outbox{
		cap:   capacity,
		delay: transport.NewBackoff(base, cap, seed),
	}
}

// Enqueue appends a report; when the queue is full the oldest report is
// evicted (drop-oldest) and counted.
func (o *Outbox) Enqueue(up *wire.DataUpload, onResult func(delivered bool, reason string)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.queue) >= o.cap {
		o.queue = o.queue[1:]
		o.stats.DroppedOverflow++
		o.met.droppedOverflow.Inc()
		o.met.depth.Add(-1)
	}
	o.queue = append(o.queue, &outboxEntry{up: up, onResult: onResult})
	o.stats.Enqueued++
	o.met.enqueued.Inc()
	o.met.depth.Add(1)
}

// Pending reports how many uploads await delivery.
func (o *Outbox) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.queue)
}

// Stats snapshots the outbox counters.
func (o *Outbox) Stats() OutboxStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// snapshotPending copies up to maxOutboxBatch queued entries (oldest
// first) without removing them; entries leave the queue only on ack.
func (o *Outbox) snapshotPending() []*outboxEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.queue)
	if n > maxOutboxBatch {
		n = maxOutboxBatch
	}
	out := make([]*outboxEntry, n)
	copy(out, o.queue[:n])
	return out
}

// remove drops the given entries from the queue (identity match).
func (o *Outbox) remove(done map[*outboxEntry]bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	before := len(o.queue)
	kept := o.queue[:0]
	for _, e := range o.queue {
		if !done[e] {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(o.queue); i++ {
		o.queue[i] = nil
	}
	o.queue = kept
	o.met.depth.Add(int64(len(kept) - before))
}

func (o *Outbox) noteErr(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil {
		o.lastErr = err.Error()
	} else {
		o.lastErr = ""
	}
}

// drainOnce makes one delivery pass: pending reports are coalesced into a
// single batch when the sender supports it, otherwise sent one by one.
// Transport failures and 5xx acks (the server failing, not judging) leave
// everything queued for the next pass; 4xx refusals are permanent (the
// server judged the report's content) and drop
// the report with its callback told why. Returns the transport error that
// stopped the pass, or nil when the pass ran to completion (the queue may
// still be non-empty only if reports arrived meanwhile).
func (o *Outbox) drainOnce(ctx context.Context, sender Sender) error {
	o.drainMu.Lock()
	defer o.drainMu.Unlock()
	for {
		pending := o.snapshotPending()
		if len(pending) == 0 {
			o.noteErr(nil)
			return nil
		}
		o.mu.Lock()
		o.stats.DrainPasses++
		o.mu.Unlock()
		o.met.drainPasses.Inc()
		bs, canBatch := sender.(BatchSender)
		if canBatch && len(pending) > 1 {
			ups := make([]*wire.DataUpload, len(pending))
			for i, e := range pending {
				ups[i] = e.up
			}
			o.mu.Lock()
			o.stats.BatchesSent++
			o.mu.Unlock()
			o.met.batches.Inc()
			ack, err := bs.SendBatch(ctx, ups)
			if err != nil {
				o.noteErr(err)
				return err
			}
			if ack.OK && ack.Code == 200 {
				done := make(map[*outboxEntry]bool, len(pending))
				o.mu.Lock()
				o.stats.Delivered += len(pending)
				o.mu.Unlock()
				o.met.delivered.Add(int64(len(pending)))
				for _, e := range pending {
					done[e] = true
					if e.onResult != nil {
						e.onResult(true, ack.Message)
					}
				}
				o.remove(done)
				continue
			}
			if !ack.OK && ack.Code >= 500 {
				// Server failure, not a judgment on the batch: retry later
				// rather than probing a dying server report by report.
				err := fmt.Errorf("frontend: server error %d: %s", ack.Code, ack.Message)
				o.noteErr(err)
				return err
			}
			// Partial or total refusal: the batch ack cannot say which
			// reports were at fault, so fall through to individual sends —
			// the server's ReportID dedup makes re-sending the accepted
			// ones harmless.
		}
		if err := o.drainSingles(ctx, sender, pending); err != nil {
			return err
		}
	}
}

// drainSingles delivers the given entries one round-trip each.
func (o *Outbox) drainSingles(ctx context.Context, sender Sender, pending []*outboxEntry) error {
	done := make(map[*outboxEntry]bool, len(pending))
	defer o.remove(done)
	for _, e := range pending {
		resp, err := sender.Send(ctx, e.up)
		if err != nil {
			o.noteErr(err)
			return err
		}
		ack, ok := resp.(*wire.Ack)
		if !ok {
			err := fmt.Errorf("frontend: upload response was %s, want ack", resp.Type())
			o.noteErr(err)
			return err
		}
		if !ack.OK && ack.Code >= 500 {
			// A 5xx ack is the server failing, not judging the report — a
			// recovering server mid-shutdown answers "wal: log killed" this
			// way. Keep the report queued like any transport fault.
			err := fmt.Errorf("frontend: server error %d: %s", ack.Code, ack.Message)
			o.noteErr(err)
			return err
		}
		done[e] = true
		if ack.OK {
			o.mu.Lock()
			o.stats.Delivered++
			o.mu.Unlock()
			o.met.delivered.Inc()
			if e.onResult != nil {
				e.onResult(true, ack.Message)
			}
			continue
		}
		o.mu.Lock()
		o.stats.DroppedRefused++
		o.mu.Unlock()
		o.met.droppedRefused.Inc()
		if e.onResult != nil {
			e.onResult(false, ack.Message)
		}
	}
	o.noteErr(nil)
	return nil
}

// Flush drains the outbox with capped exponential backoff and full jitter
// until it is empty or ctx expires. It returns nil once empty.
func (o *Outbox) Flush(ctx context.Context, sender Sender) error {
	for attempt := 0; ; attempt++ {
		err := o.drainOnce(ctx, sender)
		if err == nil && o.Pending() == 0 {
			return nil
		}
		delay := o.flushDelay(attempt)
		wake := time.NewTimer(delay)
		select {
		case <-wake.C:
		case <-ctx.Done():
			wake.Stop()
			if err == nil {
				err = errors.New("frontend: outbox not drained")
			}
			return fmt.Errorf("frontend: flush cancelled with %d pending: %w (last: %v)",
				o.Pending(), ctx.Err(), err)
		}
	}
}

// flushDelay draws the attempt's backoff: uniform in
// [0, min(cap, base·2^attempt)] — full jitter via the shared
// transport.Backoff, so a fleet of phones cut off by the same partition
// does not retry in lockstep when it heals.
func (o *Outbox) flushDelay(attempt int) time.Duration {
	return o.delay.Delay(attempt)
}
