package chaos

import (
	"fmt"
	"testing"
	"time"
)

// TestSessionSoakConvergesByteIdenticalUnderChaos is the stream
// transport's exactly-once proof: the same fleet run twice over persistent
// multiplexed sessions — once clean, once with a partition severing every
// live stream plus forced connection kills, including kills landing
// *after* the server committed a batch but *before* the ack frame was
// written — must converge to byte-identical server state. The client
// cannot distinguish those mid-batch kills from loss, so it retransmits;
// only ReportID dedup keeps the store exactly-once.
func TestSessionSoakConvergesByteIdenticalUnderChaos(t *testing.T) {
	faulty := fleetSoak(t, "session")
	base := faulty.Clean()
	clean, err := RunFleet(base)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if clean.Stored != base.Phones {
		t.Fatalf("fault-free run stored %d reports, want %d", clean.Stored, base.Phones)
	}
	if len(clean.Features) == 0 {
		t.Fatal("fault-free run produced no features")
	}

	chaotic, err := RunFleet(faulty)
	if err != nil {
		t.Fatalf("chaotic run: %v", err)
	}
	t.Logf("clean:   %s", clean.SessionSummary())
	t.Logf("chaotic: %s", chaotic.SessionSummary())

	// The chaos must have actually bitten, or the test proves nothing.
	if chaotic.Fault.SessionsSevered == 0 {
		t.Fatal("the partition severed no live sessions — stream chaos did not engage")
	}
	if chaotic.Reconnects == 0 {
		t.Fatal("no client ever reconnected — the resume path went unexercised")
	}

	if chaotic.Pending != 0 {
		t.Fatalf("%d reports still stranded in outboxes after flush\n%s",
			chaotic.Pending, repro(t, base.Seed))
	}
	// Exactly once across connection death: however many streams were
	// killed mid-batch, the server stored one report per phone.
	if chaotic.Stored != base.Phones {
		t.Fatalf("chaotic run stored %d reports, want exactly %d\n%s",
			chaotic.Stored, base.Phones, repro(t, base.Seed))
	}
	if diff := DiffState(clean, chaotic); diff != "" {
		t.Fatalf("chaotic stream run diverged from fault-free run: %s\n%s",
			diff, repro(t, base.Seed))
	}
}

// TestSessionSoakMatchesHTTPSoak pins wire compatibility end to end: the
// same fleet driven through the stream transport and through one-shot
// HTTP — identical seeds, identical schedules — must converge to the same
// server state, because request/reply frames carry the exact same wire
// codec payloads HTTP bodies do.
func TestSessionSoakMatchesHTTPSoak(t *testing.T) {
	sessCfg := fleetSoak(t, "session").Clean()
	stream, err := RunFleet(sessCfg)
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	oneShot, err := RunFleet(fleetSoak(t, "http").Clean())
	if err != nil {
		t.Fatalf("http run: %v", err)
	}
	if diff := DiffState(stream, oneShot); diff != "" {
		t.Fatalf("stream and HTTP transports converged differently: %s\n%s",
			diff, repro(t, sessCfg.Seed))
	}
}

// TestStreamKillMidBatchExactlyOnce is the reconnect/resume property
// distilled to one phone: every batch the server processes gets its
// stream killed before the ack frame leaves, so every delivery looks
// like a failure to the client and is retransmitted after reconnect.
// The store must end up with exactly one report per ReportID anyway.
func TestStreamKillMidBatchExactlyOnce(t *testing.T) {
	cfg := Fleet{Stream: true, Phones: 1, Budget: 3, Seed: soakSeed(t, 42),
		Faults: Faults{MidBatchKills: 2}}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("run: %s", res.SessionSummary())
	if res.Client.Retries == 0 {
		t.Fatal("no retransmission happened — the kill never bit")
	}
	if res.Reconnects == 0 {
		t.Fatal("the client never reconnected")
	}
	if res.Pending != 0 {
		t.Fatalf("%d reports stranded in the outbox\n%s", res.Pending, repro(t, cfg.Seed))
	}
	if res.Stored != 1 {
		t.Fatalf("processor stored %d reports, want exactly 1\n%s", res.Stored, repro(t, cfg.Seed))
	}
	seen := make(map[string]bool, len(res.SeenReports))
	for _, id := range res.SeenReports {
		if seen[id] {
			t.Fatalf("ReportID %s marked twice in the dedup window\n%s", id, repro(t, cfg.Seed))
		}
		seen[id] = true
	}
	if len(seen) != 1 {
		t.Fatalf("dedup window holds %d report ids, want 1\n%s", len(seen), repro(t, cfg.Seed))
	}
}

// TestSessionSoakDeterministicAcrossRepeats pins that the converged state
// is timing-independent: two chaotic stream runs with the same seed race
// their kills differently in wall-clock time, yet exactly-once means the
// final state cannot depend on where the kills landed.
func TestSessionSoakDeterministicAcrossRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat determinism covered by the full soak")
	}
	cfg := fleetSoak(t, "session")
	cfg.Partition = 100 * time.Millisecond
	cfg.ConnKills = 3
	cfg.MidBatchKills = 1
	a, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffState(a, b); diff != "" {
		t.Fatalf("two same-seed stream runs diverged: %s\n%s", diff, repro(t, cfg.Seed))
	}
}

// TestStreamCrashSoakRecoversIdenticalState covers the cell of the
// transport × storage grid no hand-written driver reached: stream
// sessions against a durable server killed -9 mid-drain. Every kill takes
// the listener and every session with it; phones re-dial the recovered
// incarnation and resume, and the state must equal the never-killed,
// never-partitioned run.
func TestStreamCrashSoakRecoversIdenticalState(t *testing.T) {
	faulty := fleetSoak(t, "stream-crash")
	faulty.DataDir = t.TempDir()
	base := faulty.Clean()
	base.DataDir = t.TempDir()
	clean, err := RunFleet(base)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	chaotic, err := RunFleet(faulty)
	if err != nil {
		t.Fatalf("chaotic run: %v\n%s", err, repro(t, base.Seed))
	}
	t.Logf("chaotic: %s", chaotic.SessionSummary())
	if chaotic.Reconnects == 0 {
		t.Fatal("no client ever reconnected — neither partition nor kills engaged")
	}
	if chaotic.Pending != 0 || chaotic.Stored != base.Phones {
		t.Fatalf("stored %d of %d reports, %d pending\n%s",
			chaotic.Stored, base.Phones, chaotic.Pending, repro(t, base.Seed))
	}
	if diff := DiffState(clean, chaotic); diff != "" {
		t.Fatalf("killed stream run diverged from fault-free run: %s\n%s", diff, repro(t, base.Seed))
	}
}

// SessionSummary renders a stream run's telemetry.
func (r *Result) SessionSummary() string {
	return fmt.Sprintf(
		"stored %d reports (outbox: %d enqueued, %d delivered; "+
			"stream: %d sends, %d retries, %d reconnects, %d pushes received, %d sessions severed by partition)",
		r.Stored,
		r.Outbox.Enqueued, r.Outbox.Delivered,
		r.Client.Sends, r.Client.Retries, r.Reconnects, r.PushesReceived,
		r.Fault.SessionsSevered)
}
