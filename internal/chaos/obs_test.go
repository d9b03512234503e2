package chaos

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// counter reads one counter series out of a registry snapshot (0 when the
// series was never registered).
func counter(snap obs.Snapshot, series string) int64 {
	return snap.Counters[series]
}

// TestSoakMetricsConsistentUnderChaos runs the chaotic soak with a shared
// observer wired through every hop and demands the metrics tell the same
// exactly-once story the store does:
//
//   - every report that entered the ingest handler left through exactly one
//     of the three exits (accepted / duplicate / rejected) — no report is
//     double-counted, none slips through unaccounted;
//   - the accepted counter equals the number of reports the processor
//     actually stored (one per phone, however many retransmissions the
//     chaos forced);
//   - the duplicate counter equals the replays the ack loss injected —
//     reports over accepted — and under heavy ack loss there are some;
//   - the registry's mirrors of the client and outbox counters agree with
//     the structs those components report directly.
func TestSoakMetricsConsistentUnderChaos(t *testing.T) {
	cfg := fleetSoak(t, "http").Clean()
	// Heavier ack loss than the headline soak: every stored-but-unacked
	// report forces a retransmission the server must dedup, which is the
	// path whose accounting this test exists to check.
	cfg.RequestLoss = 0.2
	cfg.AckLoss = 0.7
	cfg.Observer = obs.NewObserver()

	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("chaotic run: %v", err)
	}
	t.Logf("run: %s", res.Summary())
	snap := cfg.Observer.Metrics().Snapshot()

	reports := counter(snap, "sor_ingest_reports_total")
	accepted := counter(snap, "sor_ingest_accepted_total")
	duplicates := counter(snap, "sor_ingest_duplicate_total")
	rejected := counter(snap, "sor_ingest_rejected_total")

	// Exactly-once, as told by the counters: one acceptance per phone,
	// matching what the processor stored.
	if accepted != int64(cfg.Phones) {
		t.Errorf("ingest accepted = %d, want %d (one per phone)", accepted, cfg.Phones)
	}
	if accepted != int64(res.Stored) {
		t.Errorf("ingest accepted = %d but processor stored %d", accepted, res.Stored)
	}
	if rejected != 0 {
		t.Errorf("ingest rejected = %d, want 0 (chaos never excuses a refusal)", rejected)
	}
	// Conservation: the entry counter and the three exit counters are
	// incremented on different code paths; their balance proves every
	// report took exactly one exit.
	if reports != accepted+duplicates+rejected {
		t.Errorf("ingest reports = %d, want accepted+duplicates+rejected = %d",
			reports, accepted+duplicates+rejected)
	}
	// The injected replays: with 70%% ack loss each stored report's ack is
	// usually lost, so the outbox re-sends already-stored reports and the
	// dedup window must absorb them.
	if duplicates == 0 {
		t.Error("no duplicate reports under 70% ack loss — the replay path went unexercised")
	}
	if res.Fault.ResponsesLost == 0 {
		t.Error("no acks were lost — chaos did not engage")
	}

	// The registry mirrors of component counters must agree with the
	// structs those components report directly.
	if got, want := counter(snap, "sor_client_sends_total"), res.Client.Sends; got != want {
		t.Errorf("sor_client_sends_total = %d, client.Stats().Sends = %d", got, want)
	}
	if got, want := counter(snap, "sor_client_retries_total"), res.Client.Retries; got != want {
		t.Errorf("sor_client_retries_total = %d, client.Stats().Retries = %d", got, want)
	}
	if got, want := counter(snap, "sor_outbox_enqueued_total"), int64(res.Outbox.Enqueued); got != want {
		t.Errorf("sor_outbox_enqueued_total = %d, summed outbox stats say %d", got, want)
	}
	if got, want := counter(snap, "sor_outbox_delivered_total"), int64(res.Outbox.Delivered); got != want {
		t.Errorf("sor_outbox_delivered_total = %d, summed outbox stats say %d", got, want)
	}
	// All outboxes drained, so the fleet-aggregated depth gauge is back to
	// zero — deltas balanced across enqueue, ack-removal, and overflow.
	if depth := snap.Gauges["sor_outbox_depth"]; depth != 0 {
		t.Errorf("sor_outbox_depth = %d after full drain, want 0", depth)
	}
	if got := counter(snap, "sor_processor_uploads_total"); got != int64(res.Stored) {
		t.Errorf("sor_processor_uploads_total = %d, want %d", got, res.Stored)
	}
}

// flakyGate drops (502s) requests while its budget is positive and records
// the raw body of every request it lets through to the inner handler. The
// retryable 502 stands in for a crashed LB: the client must re-send the
// same frame, so every attempt carries the same trace RequestID.
type flakyGate struct {
	inner http.Handler

	drops atomic.Int64 // requests still to reject

	mu     sync.Mutex
	bodies [][]byte // raw frames that reached the inner handler
}

func (g *flakyGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := func() ([]byte, error) {
		defer func() { _ = r.Body.Close() }()
		var buf bytes.Buffer
		_, err := buf.ReadFrom(r.Body)
		return buf.Bytes(), err
	}()
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	if g.drops.Add(-1) >= 0 {
		http.Error(w, "injected outage", http.StatusBadGateway)
		return
	}
	g.mu.Lock()
	g.bodies = append(g.bodies, append([]byte(nil), body...))
	g.mu.Unlock()
	r.Body = nopCloser{bytes.NewReader(body)}
	g.inner.ServeHTTP(w, r)
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// passedUploads returns the recorded raw frames that decode to data
// uploads, with their trace ids.
func (g *flakyGate) passedUploads(t *testing.T) (frames [][]byte, ids []string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, b := range g.bodies {
		msg, id, err := wire.DecodeTraced(b)
		if err != nil {
			t.Fatalf("gate recorded an undecodable frame: %v", err)
		}
		if msg.Type() == wire.TypeDataUpload {
			frames = append(frames, b)
			ids = append(ids, id)
		}
	}
	return frames, ids
}

// spansNamed filters spans by name.
func spansNamed(spans []obs.SpanRecord, name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// attr returns the value of a span annotation ("" when absent).
func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTraceFollowsRequestAcrossRetriesAndFold is the end-to-end trace
// proof: one phone's upload is dropped twice at the HTTP layer before
// getting through, then the exact stored frame is replayed twice more at
// the wire level. The RequestID the client minted for the upload must
// appear on a span for every retry attempt, the server handler, the dedup
// decision (fresh once, duplicate for each replay), and the asynchronous
// processor fold — one trace stitching every hop of the ingest pipeline.
func TestTraceFollowsRequestAcrossRetriesAndFold(t *testing.T) {
	o := obs.NewObserver()
	place, err := soakPlace()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSoakServer(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	h, err := transport.NewHTTPHandler(srv.Handler(), transport.WithHandlerObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	gate := &flakyGate{inner: h}
	ts := httptest.NewServer(gate)
	defer ts.Close()

	// Retry budget 4 > the 2 injected drops: the upload survives inside a
	// single Send call, so all its attempts share one minted RequestID.
	client, err := transport.NewClient(ts.URL,
		transport.WithRetry(transport.Retry{Attempts: 4, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 11}),
		transport.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := newSoakFrontend("trace-phone", "trace-token", place, 11, client,
		transport.Retry{Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 11}, o)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sched, err := fe.Participate(ctx, "trace-user", fleetApp.id, 3, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// Two drops land on the upload's first two attempts; attempt 3 gets
	// through and is stored.
	gate.drops.Store(2)
	if _, err := fe.ExecuteSchedule(ctx, sched); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if err := fe.FlushOutbox(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	frames, ids := gate.passedUploads(t)
	if len(frames) != 1 {
		t.Fatalf("%d upload frames reached the server, want 1", len(frames))
	}
	requestID := obs.RequestID(ids[0])
	if requestID == "" {
		t.Fatal("stored upload frame carried no trace RequestID")
	}

	// Replay the stored frame twice at the wire level — byte-for-byte
	// retransmissions, same RequestID, which the dedup window must absorb.
	const replays = 2
	for i := 0; i < replays; i++ {
		resp, err := http.Post(ts.URL+transport.Path, "application/x-sor", bytes.NewReader(frames[0]))
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d: HTTP %d", i, resp.StatusCode)
		}
	}

	// Fold the stored upload — the trace's final, asynchronous hop.
	if got := srv.Processor().Process(); got != 1 {
		t.Fatalf("processor folded %d uploads, want 1", got)
	}

	trace := o.Tracer().SpansFor(requestID)
	if len(trace) == 0 {
		t.Fatal("no spans recorded for the upload's RequestID")
	}

	// Every client attempt: two rejected by the gate, one success.
	sends := spansNamed(trace, "client.send")
	if len(sends) != 3 {
		t.Fatalf("client.send spans = %d, want 3 (two drops + success)", len(sends))
	}
	for i, s := range sends {
		if got := attr(s, "attempt"); got != string(rune('1'+i)) {
			t.Errorf("client.send span %d attempt = %q, want %d", i, got, i+1)
		}
		if got := attr(s, "type"); got != "data-upload" {
			t.Errorf("client.send span %d type = %q, want data-upload", i, got)
		}
	}
	if attr(sends[0], "error") == "" || attr(sends[1], "error") == "" {
		t.Error("dropped attempts must carry an error annotation")
	}
	if attr(sends[2], "error") != "" {
		t.Errorf("final attempt recorded an error: %q", attr(sends[2], "error"))
	}

	// The server handler ran for the surviving attempt and both replays.
	handles := spansNamed(trace, "server.handle")
	if len(handles) != 1+replays {
		t.Fatalf("server.handle spans = %d, want %d", len(handles), 1+replays)
	}

	// The dedup decision: fresh exactly once, duplicate for each replay.
	var fresh, dup int
	for _, s := range spansNamed(trace, "server.dedup") {
		switch attr(s, "duplicate") {
		case "false":
			fresh++
		case "true":
			dup++
		default:
			t.Errorf("server.dedup span without a duplicate annotation: %+v", s)
		}
	}
	if fresh != 1 || dup != replays {
		t.Fatalf("dedup spans: fresh=%d dup=%d, want fresh=1 dup=%d", fresh, dup, replays)
	}

	// The processor folded the stored report under the same id, once.
	folds := spansNamed(trace, "processor.fold")
	if len(folds) != 1 {
		t.Fatalf("processor.fold spans = %d, want 1 (exactly-once)", len(folds))
	}
	if got := attr(folds[0], "app"); got != fleetApp.id {
		t.Errorf("processor.fold app = %q, want %q", got, fleetApp.id)
	}

	// And the counters agree: one accepted, two duplicates.
	snap := o.Metrics().Snapshot()
	if got := snap.Counters["sor_ingest_accepted_total"]; got != 1 {
		t.Errorf("sor_ingest_accepted_total = %d, want 1", got)
	}
	if got := snap.Counters["sor_ingest_duplicate_total"]; got != int64(replays) {
		t.Errorf("sor_ingest_duplicate_total = %d, want %d (the injected replays)", got, replays)
	}
}
