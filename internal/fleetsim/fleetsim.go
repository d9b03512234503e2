// Package fleetsim runs a deterministic discrete-event simulation of a
// large SOR fleet against a real in-process sensing server.
//
// Every phone is a lightweight state machine (not a goroutine): it joins
// its application at a seeded arrival instant, receives a schedule from
// the real participation handler, executes it, and uploads one report
// through the real wire codec with the fault injector deciding each
// attempt's fate — request loss, ack loss, latency spikes, and a timed
// partition, all on virtual time. The driver is a single-threaded event
// loop over a (virtual time, sequence) priority queue, and the server's
// clock is a *vclock.Virtual advanced only between events, so the entire
// run — schedules, retries, dedup decisions, budget charging, feature
// folding, metrics counters — is a pure function of Config. Same seed,
// same digest, byte for byte; that is what makes million-phone soaks
// debuggable: any failure replays exactly from its seed.
//
// The control plane (Participate) is modeled as reliable — joins bypass
// the fault injector so every same-seed run hands the fleet identical
// schedules and the chaos lands entirely on the data plane, mirroring the
// chaos package's clean-join phase.
package fleetsim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sor/internal/coverage"
	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/server"
	"sor/internal/stats"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/vclock"
	"sor/internal/wire"
	"sor/internal/world"
)

// Epoch anchors virtual time — the paper's simulation date, shared with
// the sim package so runs line up across harnesses.
var Epoch = time.Date(2013, 11, 15, 11, 0, 0, 0, time.UTC)

// fleetScript is the sensing task handed to every phone. The simulated
// phones do not run Lua — they synthesize the sensor series the script
// would produce — but the server requires a script and hands it back in
// every schedule, so it rides the wire like the real thing.
const fleetScript = `
	local t = get_temperature_readings(2, 5000)
	local w = get_wifi_rssi(2, 5000)
	return #t + #w
`

// Transport names for Config.Transport.
const (
	// TransportHTTP models the one-shot request/response transport (the
	// default): every exchange is independent and the fault injector
	// decides each one's fate.
	TransportHTTP = "http"
	// TransportStream models the persistent session transport: each phone
	// handshakes (through the real session frame codec) onto a registry
	// attached to the server's push path, requests ride request/reply
	// frames, server-initiated pushes are drained RTT/2 after enqueue, and
	// a partition severs every live session so phones re-handshake.
	TransportStream = "stream"
)

// Config parameterizes one fleet run. The zero value of every fault field
// is a fault-free run.
type Config struct {
	// Phones is the fleet size (default 1000).
	Phones int
	// PhonesPerApp shards the fleet across applications (default 100).
	// The online scheduler re-plans an app on every join, so the shard
	// size bounds per-join cost; the fleet scales by adding apps.
	PhonesPerApp int
	// Budget is each phone's measurement budget NBk (default 2).
	Budget int
	// Seed derives every random stream in the run.
	Seed int64
	// Period is the scheduling period (default 24h — one virtual day).
	Period time.Duration
	// Step is the timeline discretization (default 5m).
	Step time.Duration
	// Transport selects the modeled transport: TransportHTTP (the default)
	// or TransportStream. Stream runs add the session layer — handshakes,
	// frame envelopes, push delivery — on top of the identical wire bytes,
	// so the converged server state matches the http run seed for seed.
	Transport string

	// RequestLoss, AckLoss, SpikeProb, Spike parameterize the shared
	// fault injector exactly as in transport.FaultConfig.
	RequestLoss float64
	AckLoss     float64
	SpikeProb   float64
	Spike       time.Duration
	// PartitionAt/PartitionFor cut the network PartitionFor long starting
	// PartitionAt after the epoch (PartitionAt defaults to Period/4 when
	// a duration is set; zero PartitionFor means no partition).
	PartitionAt  time.Duration
	PartitionFor time.Duration

	// RTT is the virtual round-trip of a delivered message (default 200ms).
	RTT time.Duration
	// RetryBase/RetryCap bound the full-jitter exponential backoff a
	// phone sleeps between upload attempts (defaults 2s / 4m).
	RetryBase time.Duration
	RetryCap  time.Duration
	// MaxAttempts caps upload attempts per report before the phone gives
	// up (default 60 — with half-jitter backoff the retry budget then
	// provably outlasts the default one-hour partition).
	MaxAttempts int

	// RankPlaces, when > 0, seeds a dedicated fully-sensed rank category
	// of that many places at the epoch and schedules RankQueries bounded
	// rank queries spread across the virtual period — the read-path
	// counterpart of the ingest soak. The ranked orders join the
	// determinism digest; the wall-clock serving latencies are reported as
	// a virtual-time curve but excluded from the digest (wall time is the
	// one legitimately nondeterministic signal, as with histograms).
	RankPlaces int
	// RankQueries is how many rank queries the run schedules (default 96 —
	// one per quarter hour of a virtual day).
	RankQueries int
	// RankTopK bounds each query's response (default 10).
	RankTopK int
}

func (c *Config) applyDefaults() {
	if c.Phones <= 0 {
		c.Phones = 1000
	}
	if c.PhonesPerApp <= 0 {
		c.PhonesPerApp = 100
	}
	if c.Budget <= 0 {
		c.Budget = 2
	}
	if c.Period <= 0 {
		c.Period = 24 * time.Hour
	}
	if c.Step <= 0 {
		c.Step = 5 * time.Minute
	}
	if c.RTT <= 0 {
		c.RTT = 200 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Second
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 4 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 60
	}
	if c.Transport == "" {
		c.Transport = TransportHTTP
	}
	if c.PartitionFor > 0 && c.PartitionAt <= 0 {
		c.PartitionAt = c.Period / 4
	}
	if c.RankPlaces > 0 {
		if c.RankQueries <= 0 {
			c.RankQueries = 96
		}
		if c.RankTopK <= 0 {
			c.RankTopK = 10
		}
	}
}

// RankSample is one scheduled rank query's outcome.
type RankSample struct {
	// Hour is the query's virtual hour since the epoch.
	Hour int
	// Places is the response length (min(TopK, category size)).
	Places int
	// Order is the ranked place list, best first — deterministic, digested.
	Order []string
	// Wall is the wall-clock serving latency, excluded from the digest.
	Wall time.Duration
}

// CoveragePoint is one bucket of the coverage timeline: how many
// scheduled measurement instants had been confirmed (report acked) by the
// end of each virtual hour.
type CoveragePoint struct {
	Hour     int // hours since Epoch
	Acked    int // instants confirmed during this hour
	CumAcked int // running total
}

// StreamStats counts session-layer activity in a stream-transport run
// (all zero under TransportHTTP).
type StreamStats struct {
	Handshakes     int // sessions attached (first joins + re-handshakes)
	Reconnects     int // re-handshakes after a severed session
	Wakes          int // wake-up pings drained by phones
	SchedulePushes int // schedule pushes drained
	Invalidations  int // epoch invalidations drained
	OtherPushes    int // pushes with no simulated meaning
}

// LatencyStats summarizes virtual report latency (first attempt → ack).
type LatencyStats struct {
	Count                int
	P50, P95, P99, Max   time.Duration
	MeanAttemptsPerAcked float64
}

// Result is one run's outcome: delivery accounting, the coverage and
// latency curves, and the converged server state with its digest.
type Result struct {
	Cfg  Config
	Apps int

	Joined    int // phones whose participation was accepted
	Scheduled int // phones handed a non-empty schedule

	Attempts      int // upload attempts drawn through the fault injector
	DeliveredReqs int // attempts that reached the server
	Acked         int // reports confirmed to the phone
	DuplicateAcks int // acks whose server verdict was "duplicate"
	Abandoned     int // reports given up after MaxAttempts

	Fault    transport.FaultStats
	Latency  LatencyStats
	Coverage []CoveragePoint
	// Stream is the session-layer accounting (TransportStream only).
	Stream StreamStats
	// Rank is the rank-scenario sample list, empty unless RankPlaces > 0.
	Rank []RankSample

	// VirtualEnd is the clock reading when the run finished.
	VirtualEnd time.Time
	// State is the converged server state; Digest is its canonical hash.
	State  *EndState
	Digest string
}

// event is one scheduled action in the discrete-event queue, ordered by
// (at, seq) so simultaneous events fire in creation order.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// appShard is one application plus the place it ranks.
type appShard struct {
	id       string
	place    string
	lat, lon float64
}

// phone is one simulated device's state machine.
type phone struct {
	userID string
	token  string
	app    *appShard
	rng    *rand.Rand

	sched        *wire.Schedule
	report       []byte // encoded DataUpload, built once, resent verbatim
	instants     int
	firstAttempt time.Time
	attempts     int

	// sess is the phone's live server-side session (stream transport
	// only); nil or closed means the next delivered exchange re-handshakes.
	sess *session.Session
}

// driver owns the run: the queue, the clock, the server, the injector.
type driver struct {
	cfg     Config
	clk     *vclock.Virtual
	srv     *server.Server
	handler transport.Handler
	fi      *transport.FaultInjector
	obsv    *obs.Observer
	// reg is the session registry wired as the server's push path in
	// stream mode (nil under TransportHTTP).
	reg *session.Registry

	queue  eventHeap
	seq    uint64
	reqSeq uint64

	res       Result
	latencies []time.Duration
	ackedAtts int         // attempts summed over acked reports
	coverage  map[int]int // hour → instants acked
	apps      []*appShard
}

// fleetRankCategory is the rank scenario's dedicated category — its
// places are seeded once at the epoch and never written by the fleet, so
// the ranked orders are a pure function of the seed.
const fleetRankCategory = "fleet-rank"

// rankPlaceName names the rank category's places.
func rankPlaceName(p int) string { return fmt.Sprintf("rank-place-%05d", p) }

// seedRankCategory creates the rank category's applications and fully
// sensed feature rows from a latent-quality model: each place has an
// underlying quality and every feature observes it with noise of a couple
// of ranks, the correlated regime the columnar read path's clean-cut
// decomposition feeds on (mirrors the data model of the columnar
// benchmarks).
func (d *driver) seedRankCategory() error {
	n := d.cfg.RankPlaces
	rng := rand.New(rand.NewSource(d.cfg.Seed + 2))
	features := fleetRankFeatures()
	for p := 0; p < n; p++ {
		place := rankPlaceName(p)
		if err := d.srv.CreateApp(store.Application{
			ID:        fmt.Sprintf("rank-app-%05d", p),
			Creator:   "fleetsim",
			Category:  fleetRankCategory,
			Place:     place,
			Lat:       41.0 + float64(p%1000)*0.01,
			Lon:       -80.0 + float64(p/1000)*0.01,
			RadiusM:   100,
			Script:    fleetScript,
			PeriodSec: int64(d.cfg.Period / time.Second),
		}); err != nil {
			return err
		}
		u := float64(p) / float64(n)
		const jitterRanks = 2.0
		noise := func(spread float64) float64 {
			return (rng.Float64()*2 - 1) * jitterRanks * spread / float64(n)
		}
		vals := [4]float64{
			73 + u*20 + noise(20),
			1000 - u*500 + noise(500),
			30 + u*40 + noise(40),
			-40 - u*30 + noise(30),
		}
		for j, f := range features {
			if err := d.srv.DB().UpsertFeature(store.FeatureRow{
				Category: fleetRankCategory, Place: place, Feature: f.Name,
				Value: vals[j], Samples: 3, Updated: Epoch,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// rankQuery issues one bounded rank query through the wire codec and
// records its outcome.
func (d *driver) rankQuery(q int) {
	req := &wire.RankRequest{
		UserID:   "fleet-ranker",
		Category: fleetRankCategory,
		TopK:     d.cfg.RankTopK,
		Prefs: []wire.PrefEntry{
			// Tiny per-query perturbation of the preferred temperature:
			// ranked order is stable but the profile-cache key rotates, so
			// the curve measures real bounded solves, not only cache hits.
			{Feature: "temperature", Kind: int(ranking.PrefValue),
				Value: 73 + float64(q%16)*1e-9, Weight: 3},
			{Feature: "noise", Kind: int(ranking.PrefMin), Weight: 4},
		},
	}
	wall := time.Now()
	resp, err := d.roundTrip(req)
	elapsed := time.Since(wall)
	if err != nil {
		panic(fmt.Sprintf("fleetsim: rank query %d: %v", q, err))
	}
	ranked, ok := resp.(*wire.RankResponse)
	if !ok {
		panic(fmt.Sprintf("fleetsim: rank query %d refused: %+v", q, resp))
	}
	sample := RankSample{
		Hour:   int(d.clk.Now().Sub(Epoch) / time.Hour),
		Places: len(ranked.Ranked),
		Order:  make([]string, len(ranked.Ranked)),
		Wall:   elapsed,
	}
	for i, rp := range ranked.Ranked {
		sample.Order[i] = rp.Place
	}
	d.res.Rank = append(d.res.Rank, sample)
}

func (d *driver) push(at time.Time, fn func()) {
	if now := d.clk.Now(); at.Before(now) {
		at = now
	}
	d.seq++
	heap.Push(&d.queue, &event{at: at, seq: d.seq, fn: fn})
}

func (d *driver) streaming() bool { return d.cfg.Transport == TransportStream }

// handshake attaches p to the session registry through the real frame
// codec — the hello and welcome bytes are exactly what the TCP stream
// carries — and installs the enqueue hook that models push delivery:
// every server-initiated message reaches the phone RTT/2 after enqueue.
func (d *driver) handshake(p *phone) error {
	hb, err := session.EncodeFrame(session.Frame{
		Kind: session.KindHello,
		Payload: session.EncodeHello(session.Hello{
			Proto: session.ProtoVersion,
			Token: p.token,
			Caps:  session.SupportedCaps,
		}),
	})
	if err != nil {
		return fmt.Errorf("fleetsim: %s hello encode: %w", p.userID, err)
	}
	hf, _, err := session.DecodeFrame(hb)
	if err != nil || hf.Kind != session.KindHello {
		return fmt.Errorf("fleetsim: %s hello frame: %w", p.userID, err)
	}
	hello, err := session.DecodeHello(hf.Payload)
	if err != nil {
		return fmt.Errorf("fleetsim: %s hello decode: %w", p.userID, err)
	}
	sess, displaced, err := d.reg.Attach(hello.Token, session.IntersectCaps(hello.Caps))
	if err != nil {
		return fmt.Errorf("fleetsim: %s attach: %w", p.userID, err)
	}
	wb, err := session.EncodeFrame(session.Frame{
		Kind: session.KindWelcome,
		Payload: session.EncodeWelcome(session.Welcome{
			Proto:   session.ProtoVersion,
			Caps:    sess.Caps(),
			Resumed: displaced,
		}),
	})
	if err != nil {
		return fmt.Errorf("fleetsim: %s welcome encode: %w", p.userID, err)
	}
	wf, _, err := session.DecodeFrame(wb)
	if err != nil || wf.Kind != session.KindWelcome {
		return fmt.Errorf("fleetsim: %s welcome frame: %w", p.userID, err)
	}
	if _, err := session.DecodeWelcome(wf.Payload); err != nil {
		return fmt.Errorf("fleetsim: %s welcome decode: %w", p.userID, err)
	}
	d.res.Stream.Handshakes++
	if p.sess != nil {
		d.res.Stream.Reconnects++
	}
	p.sess = sess
	// The hook may run with the registry lock held; scheduling an event
	// only touches the single-threaded driver queue, never the registry.
	sess.SetOnEnqueue(func() {
		d.push(d.clk.Now().Add(d.cfg.RTT/2), func() { d.drainSession(sess) })
	})
	return nil
}

// drainSession is the delivery event an enqueue schedules: whatever is
// queued on that exact session reaches the phone now. A session severed
// in flight loses its queue with it — like the real socket.
func (d *driver) drainSession(s *session.Session) {
	if s.Closed() {
		return
	}
	for _, m := range s.TakePending() {
		switch m.(type) {
		case *wire.Ping:
			d.res.Stream.Wakes++
		case *wire.Schedule:
			d.res.Stream.SchedulePushes++
		case *wire.EpochInvalidate:
			d.res.Stream.Invalidations++
		default:
			d.res.Stream.OtherPushes++
		}
	}
}

// roundTrip carries msg to the server and its reply back through the real
// wire codec — encode, decode, dispatch, encode, decode — so the fleet
// exercises the exact bytes phones and server exchange, including the
// traced v2 envelope.
func (d *driver) roundTrip(msg wire.Message) (wire.Message, error) {
	d.reqSeq++
	seq := d.reqSeq
	id := fmt.Sprintf("fleet-%d", seq)
	b, err := wire.EncodeTraced(msg, id)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: encode request: %w", err)
	}
	if d.streaming() {
		// Stream mode wraps the identical wire bytes in a session frame —
		// envelope on, envelope off — so the run exercises the exact
		// request/reply framing the TCP transport ships.
		if b, err = d.reframe(session.KindRequest, seq, b); err != nil {
			return nil, err
		}
	}
	decoded, reqID, err := wire.DecodeTraced(b)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: decode request: %w", err)
	}
	ctx := obs.WithRequestID(context.Background(), obs.RequestID(reqID))
	resp, err := d.handler(ctx, decoded)
	if err != nil {
		return nil, err
	}
	rb, err := wire.EncodeTraced(resp, id)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: encode response: %w", err)
	}
	if d.streaming() {
		if rb, err = d.reframe(session.KindReply, seq, rb); err != nil {
			return nil, err
		}
	}
	back, _, err := wire.DecodeTraced(rb)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: decode response: %w", err)
	}
	return back, nil
}

// reframe rides payload through one session frame: encode, decode, check
// the correlation id survived, hand back the payload bytes.
func (d *driver) reframe(kind byte, id uint64, payload []byte) ([]byte, error) {
	fb, err := session.EncodeFrame(session.Frame{Kind: kind, ID: id, Payload: payload})
	if err != nil {
		return nil, fmt.Errorf("fleetsim: encode frame: %w", err)
	}
	f, _, err := session.DecodeFrame(fb)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: decode frame: %w", err)
	}
	if f.Kind != kind || f.ID != id {
		return nil, fmt.Errorf("fleetsim: frame round-trip changed (kind %d id %d)", f.Kind, f.ID)
	}
	return f.Payload, nil
}

// join is the control-plane event: participate (reliably) and schedule
// the upload that the returned plan implies.
func (d *driver) join(p *phone) error {
	// A stream phone handshakes before its first exchange; the control
	// plane is reliable, so the handshake is too.
	if d.streaming() {
		if err := d.handshake(p); err != nil {
			return err
		}
	}
	resp, err := d.roundTrip(&wire.Participate{
		UserID: p.userID,
		Token:  p.token,
		AppID:  p.app.id,
		Loc:    wire.Location{Lat: p.app.lat, Lon: p.app.lon},
		Budget: d.cfg.Budget,
	})
	if err != nil {
		return fmt.Errorf("fleetsim: %s join: %w", p.userID, err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok || !ack.OK {
		return fmt.Errorf("fleetsim: %s join refused: %+v", p.userID, resp)
	}
	d.res.Joined++
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		return fmt.Errorf("fleetsim: %s schedule decode: %w", p.userID, err)
	}
	sched, ok := inner.(*wire.Schedule)
	if !ok {
		return fmt.Errorf("fleetsim: %s ack payload is %s", p.userID, inner.Type())
	}
	if len(sched.AtUnix) == 0 {
		return nil
	}
	d.res.Scheduled++
	p.sched = sched
	p.instants = len(sched.AtUnix)
	last := sched.AtUnix[0]
	for _, at := range sched.AtUnix[1:] {
		if at > last {
			last = at
		}
	}
	// The phone finishes its last measurement, then uploads one report.
	d.push(time.Unix(last, 0).UTC().Add(d.cfg.Step), func() { d.attempt(p) })
	return nil
}

// buildReport synthesizes the upload the phone's script run would have
// produced: one temperature and one wifi sample per scheduled instant,
// drawn from the phone's own stream. Encoded once; retransmissions resend
// the identical bytes under the same ReportID, which is what lets the
// server dedup them.
func (d *driver) buildReport(p *phone) ([]byte, error) {
	temp := wire.SensorSeries{Sensor: "temperature"}
	wifi := wire.SensorSeries{Sensor: "wifi"}
	for _, at := range p.sched.AtUnix {
		ms := at * 1000
		temp.Samples = append(temp.Samples, wire.SensorSample{
			AtUnixMilli: ms,
			WindowMilli: 5000,
			Readings:    []float64{60 + 20*p.rng.Float64(), 60 + 20*p.rng.Float64()},
		})
		wifi.Samples = append(wifi.Samples, wire.SensorSample{
			AtUnixMilli: ms,
			WindowMilli: 5000,
			Readings:    []float64{-90 + 30*p.rng.Float64(), -90 + 30*p.rng.Float64()},
		})
	}
	return wire.Encode(&wire.DataUpload{
		TaskID:   p.sched.TaskID,
		AppID:    p.app.id,
		UserID:   p.userID,
		ReportID: p.token + "/" + p.sched.TaskID + "/1",
		Series:   []wire.SensorSeries{temp, wifi},
	})
}

// attempt is one upload try: draw a verdict from the shared fault
// schedule, dispatch through the handler when the request survives, and
// either confirm, give up, or back off and retry.
func (d *driver) attempt(p *phone) {
	now := d.clk.Now()
	if p.attempts == 0 {
		p.firstAttempt = now
		b, err := d.buildReport(p)
		if err != nil {
			panic(fmt.Sprintf("fleetsim: %s report encode: %v", p.userID, err))
		}
		p.report = b
	}
	p.attempts++
	d.res.Attempts++

	v := d.fi.Decide()
	var ack *wire.Ack
	if v.Delivered() {
		d.res.DeliveredReqs++
		if d.streaming() {
			if p.sess == nil || p.sess.Closed() {
				// The stream died (a partition severed it); a delivered
				// attempt re-handshakes first — reconnection shares the
				// network verdict of the exchange it carries.
				if err := d.handshake(p); err != nil {
					panic(fmt.Sprintf("fleetsim: %s rehandshake: %v", p.userID, err))
				}
			}
		}
		msg, err := wire.Decode(p.report)
		if err != nil {
			panic(fmt.Sprintf("fleetsim: %s report decode: %v", p.userID, err))
		}
		resp, err := d.roundTrip(msg)
		if err != nil {
			panic(fmt.Sprintf("fleetsim: %s upload: %v", p.userID, err))
		}
		ack, _ = resp.(*wire.Ack)
	}
	if v.Acked() && ack != nil {
		if !ack.OK {
			// Refused outright (bad participation): retrying cannot help.
			d.res.Abandoned++
			return
		}
		if ack.Message == "duplicate" {
			d.res.DuplicateAcks++
		}
		d.res.Acked++
		d.ackedAtts += p.attempts
		done := now.Add(d.cfg.RTT + v.Spike)
		d.latencies = append(d.latencies, done.Sub(p.firstAttempt))
		d.coverage[int(done.Sub(Epoch)/time.Hour)] += p.instants
		return
	}
	if p.attempts >= d.cfg.MaxAttempts {
		d.res.Abandoned++
		return
	}
	// Half-jitter exponential backoff from the phone's own stream, on top
	// of the round-trip the phone spent finding out (or timing out). The
	// window/2 floor (vs full jitter's zero) lower-bounds the total wait,
	// so MaxAttempts of capped backoff provably spans the partition.
	window := d.cfg.RetryBase << (p.attempts - 1)
	if window <= 0 || window > d.cfg.RetryCap {
		window = d.cfg.RetryCap
	}
	delay := d.cfg.RTT + window/2 + time.Duration(p.rng.Int63n(int64(window/2)+1))
	d.push(now.Add(delay), func() { d.attempt(p) })
}

// Run executes one fleet simulation and returns its converged result.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if cfg.Period < cfg.Step {
		return nil, errors.New("fleetsim: period shorter than step")
	}
	switch cfg.Transport {
	case TransportHTTP, TransportStream:
	default:
		return nil, fmt.Errorf("fleetsim: unknown transport %q", cfg.Transport)
	}

	d := &driver{
		cfg:      cfg,
		clk:      vclock.NewVirtual(Epoch),
		coverage: make(map[int]int),
	}
	d.res.Cfg = cfg

	d.obsv = obs.NewObserver(obs.WithClock(d.clk))
	// In stream mode the server's push path is a session registry on the
	// virtual clock, so joins push schedules and wakes to the live
	// sessions exactly as the TCP transport would. HTTP runs keep a nil
	// push path, leaving their digests untouched by this layer.
	var push transport.Notifier
	if cfg.Transport == TransportStream {
		d.reg = session.NewRegistry(
			session.WithRegistryMetrics(d.obsv.Metrics()),
		)
		push = d.reg
	}
	srv, err := server.New(server.Config{
		DB:     store.New(),
		Now:    d.clk.Now,
		Step:   cfg.Step,
		Kernel: coverage.GaussianKernel{Sigma: cfg.Step.Seconds() / 2},
		// Rank snapshots may serve up to a quarter hour of virtual
		// staleness before re-reading the store — the rank category is
		// static after seeding, so this only bounds rebuild frequency.
		RankRefresh: 15 * time.Minute,
		Catalog:     fleetCatalog(),
		Push:        push,
		Observer:    d.obsv,
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.handler = srv.Handler()
	d.fi = transport.NewFaultInjector(transport.FaultConfig{
		Seed:         cfg.Seed + 1,
		RequestLoss:  cfg.RequestLoss,
		ResponseLoss: cfg.AckLoss,
		SpikeProb:    cfg.SpikeProb,
		Spike:        cfg.Spike,
		Clock:        d.clk,
	})
	if d.reg != nil {
		// A partition start severs every live stream, forcing phones back
		// through the handshake — the same hook the real dialers hang here.
		d.fi.OnPartition(d.reg.CloseAll)
	}

	// Build the shards and the fleet. Every random stream splits off the
	// root in a fixed order — apps outer, phones inner — so the draw
	// sequence is a function of (Seed, Phones, PhonesPerApp) alone.
	nApps := (cfg.Phones + cfg.PhonesPerApp - 1) / cfg.PhonesPerApp
	d.res.Apps = nApps
	root := stats.NewRand(cfg.Seed)
	remaining := cfg.Phones
	for a := 0; a < nApps; a++ {
		shard := &appShard{
			id:    fmt.Sprintf("fleet-app-%05d", a),
			place: fmt.Sprintf("fleet-site-%05d", a),
			lat:   40.0 + float64(a%1000)*0.01,
			lon:   -79.0 + float64(a/1000)*0.01,
		}
		d.apps = append(d.apps, shard)
		if err := srv.CreateApp(store.Application{
			ID:        shard.id,
			Creator:   "fleetsim",
			Category:  world.CategoryCoffee,
			Place:     shard.place,
			Lat:       shard.lat,
			Lon:       shard.lon,
			RadiusM:   100,
			Script:    fleetScript,
			PeriodSec: int64(cfg.Period / time.Second),
		}); err != nil {
			return nil, err
		}
		appRng := stats.Split(root)
		count := cfg.PhonesPerApp
		if count > remaining {
			count = remaining
		}
		remaining -= count
		for i := 0; i < count; i++ {
			p := &phone{
				userID: fmt.Sprintf("u-%05d-%04d", a, i),
				token:  fmt.Sprintf("tok-%05d-%04d", a, i),
				app:    shard,
				rng:    stats.Split(appRng),
			}
			// Arrivals land in the first half of the period so every
			// phone has a future window worth scheduling.
			arrive := Epoch.Add(time.Duration(p.rng.Int63n(int64(cfg.Period / 2))))
			d.push(arrive, func() {
				if err := d.join(p); err != nil {
					panic(err)
				}
			})
		}
	}

	if cfg.PartitionFor > 0 {
		d.push(Epoch.Add(cfg.PartitionAt), func() {
			d.fi.PartitionFor(cfg.PartitionFor)
		})
	}

	// The rank scenario: seed the static category at the epoch and spread
	// the bounded queries evenly across the period.
	if cfg.RankPlaces > 0 {
		if err := d.seedRankCategory(); err != nil {
			return nil, err
		}
		for q := 0; q < cfg.RankQueries; q++ {
			q := q
			at := Epoch.Add(time.Duration(q+1) * cfg.Period / time.Duration(cfg.RankQueries+1))
			d.push(at, func() { d.rankQuery(q) })
		}
	}

	// The event loop: strictly ordered by (virtual time, creation seq).
	// AdvanceTo fires any clock timers due first (the partition's heal),
	// so timer effects and event effects interleave deterministically.
	var runErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("fleetsim: %v", r)
			}
		}()
		for d.queue.Len() > 0 {
			ev := heap.Pop(&d.queue).(*event)
			d.clk.AdvanceTo(ev.at)
			ev.fn()
		}
	}()
	if runErr != nil {
		return nil, runErr
	}

	// Land on a deterministic end instant, fold every stored upload into
	// the feature matrix, and capture the converged state.
	end := Epoch.Add(cfg.Period + cfg.Step)
	d.clk.AdvanceTo(end)
	// The memory store discards uploads as the processor drains them, so
	// the exactly-once ingest count must be read before processing.
	uploadsStored := srv.DB().UploadCount()
	srv.Processor().Process()
	d.res.VirtualEnd = d.clk.Now()
	d.res.Fault = d.fi.Stats()
	d.res.Latency = summarizeLatency(d.latencies, d.ackedAtts, d.res.Acked)
	d.res.Coverage = coverageCurve(d.coverage)

	state, err := captureState(srv, d.obsv, d.apps)
	if err != nil {
		return nil, err
	}
	state.UploadsStored = uploadsStored
	d.res.State = state
	d.res.Digest = d.res.digest()
	return &d.res, nil
}

// fleetCatalog ranks the two features the fleet's phones report, plus the
// rank scenario's dedicated category (harmless when unused — it has no
// applications unless RankPlaces > 0).
func fleetCatalog() map[string][]ranking.Feature {
	return map[string][]ranking.Feature{
		world.CategoryCoffee: {
			{Name: "temperature", Unit: "°F",
				Default: ranking.Preference{Kind: ranking.PrefValue, Value: 73}},
			{Name: "wifi", Unit: "dBm",
				Default: ranking.Preference{Kind: ranking.PrefMax}},
		},
		fleetRankCategory: fleetRankFeatures(),
	}
}

// fleetRankFeatures is the rank category's four-feature catalog, matching
// the columnar benchmarks' shape.
func fleetRankFeatures() []ranking.Feature {
	return []ranking.Feature{
		{Name: "temperature", Unit: "°F",
			Default: ranking.Preference{Kind: ranking.PrefValue, Value: 73, Weight: 3}},
		{Name: "brightness", Unit: "lux",
			Default: ranking.Preference{Kind: ranking.PrefMax, Weight: 2}},
		{Name: "noise", Unit: "",
			Default: ranking.Preference{Kind: ranking.PrefMin, Weight: 4}},
		{Name: "wifi", Unit: "dBm",
			Default: ranking.Preference{Kind: ranking.PrefMax, Weight: 1}},
	}
}

func summarizeLatency(lat []time.Duration, ackedAtts, acked int) LatencyStats {
	s := LatencyStats{Count: len(lat)}
	if len(lat) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	s.P50, s.P95, s.P99 = pick(0.50), pick(0.95), pick(0.99)
	s.Max = sorted[len(sorted)-1]
	if acked > 0 {
		s.MeanAttemptsPerAcked = float64(ackedAtts) / float64(acked)
	}
	return s
}

func coverageCurve(byHour map[int]int) []CoveragePoint {
	hours := make([]int, 0, len(byHour))
	for h := range byHour {
		hours = append(hours, h)
	}
	sort.Ints(hours)
	out := make([]CoveragePoint, 0, len(hours))
	cum := 0
	for _, h := range hours {
		cum += byHour[h]
		out = append(out, CoveragePoint{Hour: h, Acked: byHour[h], CumAcked: cum})
	}
	return out
}
