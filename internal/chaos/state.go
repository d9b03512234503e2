package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"sor/internal/frontend"
	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/transport"
)

// Result is one fleet run's converged state plus its delivery telemetry.
type Result struct {
	// Features is the category's feature matrix with the wall-clock Updated
	// stamp zeroed — everything else must match the fault-free run bit for
	// bit.
	Features []store.FeatureRow
	// Executed is the app's coverage timeline (sorted executed instants).
	Executed []int
	// Ledger is the per-user budget accounting.
	Ledger map[string]schedule.UserLedger
	// Stored counts uploads the processor decoded — with exactly-once
	// ingest this equals the fleet size no matter how many retransmissions
	// the chaos forced.
	Stored int
	// Pending counts reports still stranded in device outboxes (0 on a
	// converged run).
	Pending int
	// SeenReports is the app's dedup window (sorted ReportIDs): two runs
	// that stored the same reports must have marked the same IDs.
	SeenReports []string
	// UploadsStored counts raw uploads the store holds (pending plus
	// archived) — the store-level exactly-once check, immune to the
	// processor re-counting refolds after a crash recovery. In-memory
	// stores discard drained uploads, durable stores archive them, so it
	// is the one field that legitimately differs across storage.
	UploadsStored int
	// Fault, Client, Outbox are the run's delivery counters. On the stream
	// transport Client sums the per-phone session clients.
	Fault  transport.FaultStats
	Client transport.ClientStats
	Outbox frontend.OutboxStats
	// Stream-transport telemetry (zero over HTTP): wake-ups the registry
	// delivered, successful client re-dials after severed streams, and
	// server-initiated messages the fleet saw.
	WakesSent      int
	Reconnects     int64
	PushesReceived int64
}

// DiffState compares two runs' converged server state and returns a
// description of the first difference, or "" when they are byte-identical.
// Feature values are compared by their IEEE-754 bit patterns: "close
// enough" floats would hide an ingest path that feeds extractors in
// arrival order or stores a retransmission twice.
func DiffState(a, b *Result) string {
	if len(a.Features) != len(b.Features) {
		return fmt.Sprintf("feature rows: %d vs %d", len(a.Features), len(b.Features))
	}
	for i := range a.Features {
		fa, fb := a.Features[i], b.Features[i]
		if fa.Category != fb.Category || fa.Place != fb.Place || fa.Feature != fb.Feature {
			return fmt.Sprintf("feature[%d] identity: %s/%s/%s vs %s/%s/%s",
				i, fa.Category, fa.Place, fa.Feature, fb.Category, fb.Place, fb.Feature)
		}
		if math.Float64bits(fa.Value) != math.Float64bits(fb.Value) {
			return fmt.Sprintf("feature %s/%s value bits: %x (%v) vs %x (%v)",
				fa.Place, fa.Feature, math.Float64bits(fa.Value), fa.Value,
				math.Float64bits(fb.Value), fb.Value)
		}
		if fa.Samples != fb.Samples {
			return fmt.Sprintf("feature %s/%s samples: %d vs %d",
				fa.Place, fa.Feature, fa.Samples, fb.Samples)
		}
	}
	if len(a.Executed) != len(b.Executed) {
		return fmt.Sprintf("executed instants: %d vs %d", len(a.Executed), len(b.Executed))
	}
	for i := range a.Executed {
		if a.Executed[i] != b.Executed[i] {
			return fmt.Sprintf("executed[%d]: %d vs %d", i, a.Executed[i], b.Executed[i])
		}
	}
	if len(a.Ledger) != len(b.Ledger) {
		return fmt.Sprintf("ledger users: %d vs %d", len(a.Ledger), len(b.Ledger))
	}
	for user, la := range a.Ledger {
		lb, ok := b.Ledger[user]
		if !ok {
			return fmt.Sprintf("ledger user %s missing in second run", user)
		}
		if la != lb {
			return fmt.Sprintf("ledger %s: %+v vs %+v", user, la, lb)
		}
	}
	if len(a.SeenReports) != len(b.SeenReports) {
		return fmt.Sprintf("dedup window: %d vs %d report ids", len(a.SeenReports), len(b.SeenReports))
	}
	for i := range a.SeenReports {
		if a.SeenReports[i] != b.SeenReports[i] {
			return fmt.Sprintf("dedup window[%d]: %s vs %s", i, a.SeenReports[i], b.SeenReports[i])
		}
	}
	if a.UploadsStored != b.UploadsStored {
		return fmt.Sprintf("stored uploads: %d vs %d", a.UploadsStored, b.UploadsStored)
	}
	return ""
}

// Digest hashes exactly what DiffState compares except UploadsStored (the
// field that differs across storage), so one value pins an experiment
// across transports, storage backends and commits.
func (r *Result) Digest() string {
	h := sha256.New()
	for _, f := range r.Features {
		fmt.Fprintf(h, "feat|%s|%s|%s|%016x|%d\n", f.Category, f.Place, f.Feature, math.Float64bits(f.Value), f.Samples)
	}
	for _, n := range r.Executed {
		fmt.Fprintf(h, "exec|%d\n", n)
	}
	users := make([]string, 0, len(r.Ledger))
	for u := range r.Ledger {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Fprintf(h, "ledger|%s|%+v\n", u, r.Ledger[u])
	}
	for _, id := range r.SeenReports {
		fmt.Fprintf(h, "seen|%s\n", id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Summary renders the run's delivery telemetry for human eyes (sorsim's
// chaos sweep and verbose soak logs).
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"stored %d reports (outbox: %d enqueued, %d delivered, %d drain passes; "+
			"faults: %d/%d requests lost, %d acks lost, %d refused by partition; "+
			"client: %d sends, %d retries)",
		r.Stored,
		r.Outbox.Enqueued, r.Outbox.Delivered, r.Outbox.DrainPasses,
		r.Fault.RequestsLost, r.Fault.Requests, r.Fault.ResponsesLost, r.Fault.Partitioned,
		r.Client.Sends, r.Client.Retries)
}

// StateDigest hashes a store's externally visible state into one
// comparable string: users, apps, participations, anchors, the dedup
// window, every stored upload body in sequence order, and the feature
// matrix bit-for-bit (Updated stamps excluded — they are wall-clock).
// Scheduler internals and WAL positions are deliberately outside the
// digest: replicas do not run the scheduler, and compaction
// legitimately shifts log offsets without changing state.
func StateDigest(db *store.Store, category, appID string) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	users := db.Users()
	sort.Slice(users, func(i, j int) bool { return users[i].ID < users[j].ID })
	for _, u := range users {
		put("user|%s|%s|%s\n", u.ID, u.Name, u.Token)
	}
	apps := db.Apps()
	sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })
	for _, a := range apps {
		put("app|%s|%s|%s|%s|%x|%x|%x|%d\n",
			a.ID, a.Creator, a.Category, a.Place,
			math.Float64bits(a.Lat), math.Float64bits(a.Lon),
			math.Float64bits(a.RadiusM), a.PeriodSec)
	}
	for _, p := range db.ParticipationsByApp(appID) {
		put("part|%s|%s|%s|%d|%d|%d\n",
			p.TaskID, p.UserID, p.Token, p.Budget, p.Status, p.Joined.UnixNano())
	}
	anchors := db.Anchors()
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].AppID < anchors[j].AppID })
	for _, a := range anchors {
		put("anchor|%s|%d\n", a.AppID, a.AnchorUnix)
	}
	for _, id := range db.SeenReportIDs(appID) {
		put("seen|%s\n", id)
	}
	for _, u := range db.AllUploads() {
		put("upload|%d|%s|%d|", u.Seq, u.AppID, u.Received.UnixNano())
		h.Write(u.Body)
		put("\n")
	}
	rows := db.FeaturesByCategory(category)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Place != rows[j].Place {
			return rows[i].Place < rows[j].Place
		}
		return rows[i].Feature < rows[j].Feature
	})
	for _, r := range rows {
		put("feat|%s|%s|%x|%d\n", r.Place, r.Feature, math.Float64bits(r.Value), r.Samples)
	}
	return hex.EncodeToString(h.Sum(nil))
}
