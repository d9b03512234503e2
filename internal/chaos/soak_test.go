package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"sor/internal/frontend"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
)

// fleetSoak sizes a FleetSoaks row: the full fleet and the row's own
// partition for `make chaos`, a trimmed fleet and a 50 ms partition for
// -short CI runs.
func fleetSoak(t *testing.T, name string) Fleet {
	t.Helper()
	sc, ok := FleetSoaks[name]
	if !ok {
		t.Fatalf("no fleet scenario %q", name)
	}
	sc.Phones, sc.Budget, sc.Seed = 6, 4, soakSeed(t, 42)
	if testing.Short() {
		sc.Phones, sc.Budget = 3, 3
		if sc.Partition > 50*time.Millisecond {
			sc.Partition = 50 * time.Millisecond
		}
	}
	return sc
}

// TestSoakConvergesByteIdenticalUnderChaos is the headline exactly-once
// proof: the same fleet run twice — once over a clean network, once with
// 30 % request loss, 30 % ack loss, latency spikes, and a partition
// dropping on it mid-upload — must converge to the same feature matrix
// (bit-for-bit float values), the same coverage timeline, and the same
// per-user budget ledger, with every report stored exactly once.
func TestSoakConvergesByteIdenticalUnderChaos(t *testing.T) {
	faulty := fleetSoak(t, "http")
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
	t.Logf("clean:   %s", clean.Summary())
	t.Logf("chaotic: %s", chaotic.Summary())

	// The chaos must have actually bitten, or the test proves nothing.
	if chaotic.Fault.RequestsLost == 0 {
		t.Fatal("no requests were lost — chaos did not engage")
	}
	if chaotic.Fault.ResponsesLost == 0 {
		t.Fatal("no acks were lost — the delivered-but-unacked path went unexercised")
	}
	if chaotic.Fault.Partitioned == 0 {
		t.Fatal("no request hit the partition")
	}
	if chaotic.Client.Retries == 0 {
		t.Fatal("the client never retried — the faulty run was effectively clean")
	}

	if chaotic.Pending != 0 {
		t.Fatalf("%d reports still stranded in outboxes after flush\n%s",
			chaotic.Pending, repro(t, base.Seed))
	}
	// Exactly once: however many retransmissions the loss forced, the
	// server stored one report per phone.
	if chaotic.Stored != base.Phones {
		t.Fatalf("chaotic run stored %d reports, want exactly %d\n%s",
			chaotic.Stored, base.Phones, repro(t, base.Seed))
	}
	if diff := DiffState(clean, chaotic); diff != "" {
		t.Fatalf("chaotic run diverged from fault-free run: %s\n%s",
			diff, repro(t, base.Seed))
	}
}

// pingRig is the one-phone harness for the partition-recovery regression.
type pingRig struct {
	srv    *server.Server
	fi     *transport.FaultInjector
	fe     *frontend.Frontend
	ts     *httptest.Server
	client *transport.Client
}

func newPingRig(t *testing.T) *pingRig {
	t.Helper()
	place, err := soakPlace()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSoakServer(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := transport.NewHTTPHandler(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	fi := transport.NewFaultInjector(transport.FaultConfig{Seed: 7})
	ts := httptest.NewServer(fi.Handler(h))
	t.Cleanup(ts.Close)
	client, err := transport.NewClient(ts.URL,
		transport.WithRetry(transport.Retry{Attempts: 1, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := newSoakFrontend("ping-phone", "ping-token", place, 7, client,
		transport.Retry{Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &pingRig{srv: srv, fi: fi, fe: fe, ts: ts, client: client}
}

// TestPingMidPartitionRecoveredByOutboxDrain pins the recovery choreography
// end to end over real HTTP: a partition strands a finished task's report
// in the outbox; a push-channel ping *during* the partition fails without
// losing the report; the same ping after healing drains the outbox and the
// task completes.
func TestPingMidPartitionRecoveredByOutboxDrain(t *testing.T) {
	rig := newPingRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sched, err := rig.fe.Participate(ctx, "ping-user", fleetApp.id, 3, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rig.fi.StartPartition()
	if _, err := rig.fe.ExecuteSchedule(ctx, sched); err != nil {
		t.Fatalf("execute under partition must park, not fail: %v", err)
	}
	info, ok := rig.fe.Task(sched.TaskID)
	if !ok || info.State != frontend.TaskStateUploadPending {
		t.Fatalf("task state = %v, want upload-pending", info.State)
	}
	if got := rig.fe.Outbox().Pending(); got != 1 {
		t.Fatalf("outbox pending = %d, want 1", got)
	}

	// Mid-partition ping: fails (the network is down), loses nothing.
	if err := rig.fe.HandlePing(ctx); err == nil {
		t.Fatal("ping through a partition must fail")
	} else if !errors.Is(errors.Unwrap(err), transport.ErrInjected) && !isInjectedDeep(err) {
		t.Logf("note: partition surfaced as %v", err)
	}
	if got := rig.fe.Outbox().Pending(); got != 1 {
		t.Fatalf("outbox pending after failed ping = %d, want 1", got)
	}
	if got := rig.srv.DB().PendingUploads(); got != 0 {
		t.Fatalf("server stored %d uploads through a partition", got)
	}

	// Heal, ping again: the wake-up doubles as the drain trigger.
	rig.fi.HealPartition()
	if err := rig.fe.HandlePing(ctx); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
	if got := rig.fe.Outbox().Pending(); got != 0 {
		t.Fatalf("outbox pending after recovery = %d, want 0", got)
	}
	info, _ = rig.fe.Task(sched.TaskID)
	if info.State != frontend.TaskStateDone {
		t.Fatalf("task state after recovery = %v, want done", info.State)
	}
	if got := rig.srv.DB().PendingUploads(); got != 1 {
		t.Fatalf("server pending uploads = %d, want 1", got)
	}
}

// isInjectedDeep walks the error chain for the injector's marker. The
// partition error crosses an HTTP connection abort, so the marker may not
// survive; the check is advisory (see the t.Logf above).
func isInjectedDeep(err error) bool {
	for err != nil {
		if errors.Is(err, transport.ErrInjected) {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// TestSoakDeterministicAcrossRepeats pins the harness itself: two chaotic
// runs with the same seed are the same experiment — without this, a green
// convergence test could be luck.
func TestSoakDeterministicAcrossRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat determinism covered by the full soak")
	}
	cfg := fleetSoak(t, "http")
	cfg.SpikeProb = 0
	cfg.Partition = 100 * time.Millisecond
	a, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffState(a, b); diff != "" {
		t.Fatalf("two same-seed chaotic runs diverged: %s\n%s", diff, repro(t, cfg.Seed))
	}
}

// TestDiffStateCatchesDivergence sanity-checks the comparator the soak
// leans on.
func TestDiffStateCatchesDivergence(t *testing.T) {
	a := &Result{Features: []store.FeatureRow{{Place: "p", Feature: "f", Value: 1.0, Samples: 2}}}
	b := &Result{Features: []store.FeatureRow{{Place: "p", Feature: "f", Value: 1.0 + 1e-15, Samples: 2}}}
	if DiffState(a, a) != "" {
		t.Fatal("identical results reported as different")
	}
	if DiffState(a, b) == "" {
		t.Fatal("1-ulp float drift must be caught")
	}
	c := &Result{
		Features: a.Features,
		Executed: []int{1, 2},
	}
	if DiffState(a, c) == "" {
		t.Fatal("executed-instant divergence must be caught")
	}
	_ = fmt.Sprintf("%s", a.Summary()) // Summary must not panic on sparse results
}

// digestState is the store content TestStateDigestCatchesDivergence
// perturbs one field at a time.
type digestState struct {
	value    float64
	updated  time.Time
	body     []byte
	reportID string
	budget   int
	anchor   time.Time
}

func (d digestState) digest(t *testing.T) string {
	t.Helper()
	db := store.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.PutUser(store.User{ID: "u", Name: "U", Token: "tok"}))
	must(db.PutApp(fleetApp.store()))
	must(db.PutParticipation(store.Participation{
		TaskID: "task-1", UserID: "u", Token: "tok", AppID: fleetApp.id, Budget: d.budget, Joined: soakEpoch}))
	must(db.PutAnchor(fleetApp.id, d.anchor))
	_, err := db.Ingest(fleetApp.id, [][]byte{d.body},
		store.IngestOptions{Received: soakEpoch, ReportIDs: []string{d.reportID}})
	must(err)
	must(db.UpsertFeature(store.FeatureRow{Category: fleetApp.category, Place: fleetApp.place,
		Feature: "noise", Value: d.value, Samples: 3, Updated: d.updated}))
	return StateDigest(db, fleetApp.category, fleetApp.id)
}

// TestStateDigestCatchesDivergence sanity-checks the comparator the
// replica and cluster soaks lean on: one flipped feature bit, upload body
// byte, dedup id, participation budget or anchor each changes the digest,
// and a wall-clock Updated stamp does not.
func TestStateDigestCatchesDivergence(t *testing.T) {
	base := digestState{value: 1.0, updated: soakEpoch, body: []byte("report-body"),
		reportID: "r-1", budget: 4, anchor: soakEpoch}
	want := base.digest(t)
	if base.digest(t) != want {
		t.Fatal("identical stores digest differently")
	}
	stamped := base
	stamped.updated = soakEpoch.Add(time.Hour)
	if stamped.digest(t) != want {
		t.Fatal("a wall-clock Updated stamp leaked into the digest")
	}
	for name, mutate := range map[string]func(*digestState){
		"feature bit":          func(d *digestState) { d.value = 1.0 + 1e-15 },
		"upload body byte":     func(d *digestState) { d.body = []byte("report-bodz") },
		"dedup id":             func(d *digestState) { d.reportID = "r-2" },
		"participation budget": func(d *digestState) { d.budget = 3 },
		"anchor":               func(d *digestState) { d.anchor = soakEpoch.Add(time.Second) },
	} {
		changed := base
		mutate(&changed)
		if changed.digest(t) == want {
			t.Errorf("digest blind to a changed %s", name)
		}
	}
}
