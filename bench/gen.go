package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"sor"
	"sor/internal/ranking"
	"sor/internal/wire"
)

// Categories of the benchmark catalog. Every category ranks the same four
// mean-extracted features, so one generator serves them all.
const (
	catA      = "bench-a"
	catB      = "bench-b"
	catShadow = "bench-shadow"
)

// benchFeature pairs a ranked feature with the sensor series that feeds
// it through the server's mean extractor.
type benchFeature struct {
	name, sensor string
	base, slope  float64 // value of a place with latent quality u: base + u*slope
}

// The latent-quality model of bench_rankcol_test.go: a place has one
// underlying quality u in [0,1) (0 = best) and every feature observes it.
// Correlated columns are the regime sensed features live in, and they are
// what keeps the aggregation's clean cuts dense.
var benchFeatures = [4]benchFeature{
	{"temperature", "temperature", 73, 20}, // default prefers exactly 73
	{"brightness", "light", 1000, -500},    // PrefMax
	{"humidity", "humidity", 30, 40},       // PrefMin
	{"wifi", "wifi", -40, -30},             // PrefMax
}

func benchCatalog() map[string][]sor.Feature {
	feats := []sor.Feature{
		{Name: "temperature", Unit: "°F", Default: sor.Preference{Kind: sor.PrefValue, Value: 73, Weight: 3}},
		{Name: "brightness", Unit: "lux", Default: sor.Preference{Kind: sor.PrefMax, Weight: 2}},
		{Name: "humidity", Unit: "%", Default: sor.Preference{Kind: sor.PrefMin, Weight: 4}},
		{Name: "wifi", Unit: "dBm", Default: sor.Preference{Kind: sor.PrefMax, Weight: 1}},
	}
	return map[string][]sor.Feature{catA: feats, catB: feats, catShadow: feats}
}

// Sensing noise of a seeded place, in ranks. It is pinned per profile
// style because the block solve has a cliff: the cost of an uncached
// query grows roughly tenfold per added rank of disagreement between the
// columns, and a few ranks past the values below a query does not return.
// A target profile folds the places on both sides of its target into one
// order, which doubles the disagreement, so its categories carry less.
// Measured at 2 000 places, 200 target queries per category: 1.0 ranks
// p50 55 µs / p99 1.4 ms; 1.25 ranks p50 0.26 ms / p99 7 ms; 1.5 ranks
// p50 1.4 ms / p99 0.1 s; 2 ranks p50 0.3 s.
const (
	topNoise    = 3.0  // categories queried with top-end profiles (fresh)
	targetNoise = 1.25 // categories queried with target profiles (rank)
)

// placeValues returns the four feature values of place p of n under
// noiseRanks ranks of sensing noise.
func placeValues(seed int64, category string, p, n int, noiseRanks float64) [4]float64 {
	r := at(seed, "place:"+category, p)
	u := float64(p) / float64(n)
	var v [4]float64
	for j, f := range benchFeatures {
		v[j] = f.base + u*f.slope + r.sym()*noiseRanks*math.Abs(f.slope)/float64(n)
	}
	return v
}

func appID(category string, p int) string     { return fmt.Sprintf("%s-app-%05d", category, p) }
func placeName(category string, p int) string { return fmt.Sprintf("%s-place-%05d", category, p) }

func benchApp(category string, p int) sor.Application {
	return sor.Application{
		ID: appID(category, p), Creator: "bench", Category: category,
		Place: placeName(category, p), Lat: 43 + float64(p)*1e-4, Lon: -76,
		RadiusM: 500, Script: "return 1", PeriodSec: 3 * 3600,
	}
}

func appLoc(p int) wire.Location { return wire.Location{Lat: 43 + float64(p)*1e-4, Lon: -76} }

// hotProfiles is the size of the rank workload's repeated-profile pool; it
// fits the server's 256-entry result cache with room to spare.
const hotProfiles = 64

// topPrefs builds top-end profile id: every feature keeps the catalog's
// preferred direction (a target below every place's temperature, min
// humidity, max brightness) and the weights and the exact target vary, so
// profiles differ as cache keys and in edge costs but all rank the same
// end of the category first. The fresh workload uses these: its live
// places are the best by latent quality, so they fill every top-10.
func topPrefs(seed int64, id int) []wire.PrefEntry {
	r := at(seed, "profile", id)
	return []wire.PrefEntry{
		{Feature: "temperature", Kind: int(sor.PrefValue), Value: 73 - float64(id+1)*1e-7, Weight: 1 + r.intn(5)},
		{Feature: "humidity", Kind: int(sor.PrefMin), Weight: 1 + r.intn(5)},
		{Feature: "brightness", Kind: int(sor.PrefMax), Weight: 1 + r.intn(5)},
	}
}

// targetPrefs builds target profile id: a user who wants every feature at
// the value a place of latent quality u has (74 °F, medium light, …), with
// weights of their own. The places nearest u, from either side, rank
// first, so each profile walks the clean-cut blocks of a different region
// of the category. A workload whose uncached queries all rank the same
// end first pays one block structure per category, a single draw from a
// heavy-tailed cost distribution: its p90 swung 0.2 ms – 12 ms across
// seeds. Spreading u over the category averages thousands of draws
// instead. Hot ids tile [0, 1); cold ids follow the golden-ratio sequence
// so any run of them covers the category evenly.
func targetPrefs(seed int64, id int) []wire.PrefEntry {
	r := at(seed, "profile", id)
	var u float64
	if id < hotProfiles {
		u = (float64(id) + r.float()) / hotProfiles
	} else {
		u = math.Mod(at(seed, "profile-offset", 0).float()+float64(id)*0.6180339887498949, 1)
	}
	u = 0.01 + 0.98*u // keep both sides of the target populated
	prefs := make([]wire.PrefEntry, len(benchFeatures))
	for j, f := range benchFeatures {
		prefs[j] = wire.PrefEntry{Feature: f.name, Kind: int(sor.PrefValue), Value: f.base + u*f.slope, Weight: 1 + r.intn(5)}
	}
	return prefs
}

func profileOf(name string, prefs []wire.PrefEntry) sor.Profile {
	p := sor.Profile{Name: name, Prefs: make(map[string]sor.Preference, len(prefs))}
	for _, e := range prefs {
		p.Prefs[e.Feature] = sor.Preference{Kind: ranking.PrefKind(e.Kind), Value: e.Value, Weight: e.Weight}
	}
	return p
}

// rankQuery draws client c's i-th query: 80 % from the hot pool, 20 % a
// profile no one has sent before.
func rankQuery(seed int64, category string, c, i int) *wire.RankRequest {
	r := at(seed, "rank-op", c<<32|i)
	id := r.intn(hotProfiles)
	if r.float() >= 0.8 {
		id = hotProfiles + (i*nClients + c) // unique across clients and ops
	}
	return &wire.RankRequest{Category: category, UserID: "ranker", TopK: 10, Prefs: targetPrefs(seed, id)}
}

// reading draws one sensor reading within ±1 rank of the place's latent
// value, so folding it nudges the place instead of teleporting it.
func reading(r *rng, f benchFeature, p, n int) float64 {
	u := float64(p) / float64(n)
	return f.base + u*f.slope + r.sym()*math.Abs(f.slope)/float64(n)
}

// report builds one DataUpload for place p of n: the given features, one
// sample each, perSample readings per sample.
func report(r *rng, task, category, user, reportID string, p, n int, feats []benchFeature, perSample int, atMilli int64) wire.DataUpload {
	up := wire.DataUpload{TaskID: task, AppID: appID(category, p), UserID: user, ReportID: reportID,
		Series: make([]wire.SensorSeries, len(feats))}
	for j, f := range feats {
		vals := make([]float64, perSample)
		for k := range vals {
			vals[k] = reading(r, f, p, n)
		}
		up.Series[j] = wire.SensorSeries{Sensor: f.sensor,
			Samples: []wire.SensorSample{{AtUnixMilli: atMilli, WindowMilli: 5000, Readings: vals}}}
	}
	return up
}

// ---- mobility trace (join workload) ----

// Dwell times are truncated Pareto (α = 1.5 on [60 s, 3 h]) and place
// popularity is Zipf(1): the heavy-tailed stays and skewed venues of
// opportunistic crowdsensing traces (arXiv 1704.08598), in place of
// i.i.d. draws.
const (
	dwellAlpha = 1.5
	dwellMin   = 60.0
	dwellMax   = 3 * 3600.0
)

// dwellAt is the dwell at quantile u.
func dwellAt(u float64) float64 {
	lo, hi := math.Pow(dwellMin, -dwellAlpha), math.Pow(dwellMax, -dwellAlpha)
	return math.Pow(lo-u*(lo-hi), -1/dwellAlpha)
}

// dwellBeyond is ∫ P(dwell > t) dt from r up: the expected part of a stay
// that lies past its first r seconds.
func dwellBeyond(r float64) float64 {
	if r < dwellMin {
		return dwellMin - r + dwellBeyond(dwellMin)
	}
	e := 1 - dwellAlpha
	lo, hi := math.Pow(dwellMin, -dwellAlpha), math.Pow(dwellMax, -dwellAlpha)
	return ((math.Pow(dwellMax, e)-math.Pow(r, e))/e - hi*(dwellMax-r)) / (lo - hi)
}

// dwellMean is E[dwell].
var dwellMean = dwellBeyond(0)

// residualAt is, at quantile u, what is left of the stay of a member found
// present at a random instant: the equilibrium law of the dwell, with
// P(residual > r) = dwellBeyond(r) / dwellMean.
func residualAt(u float64) float64 {
	want := (1 - u) * dwellMean
	if tail := dwellBeyond(dwellMin); want >= tail {
		return dwellMin - (want - tail)
	}
	lo, hi := dwellMin, dwellMax
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; dwellBeyond(mid) > want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// strata hands out uniform draws that, taken n at a time, land once in
// each of the n equal slices of [0, 1), in random order. Every draw of
// the trace goes through one: the marginal laws stay exactly Zipf and
// Pareto, but a heavy tail sampled by strata cannot give one seed three
// 3-hour stays and the next seed none, which is what made replan cost
// swing 20 – 35 % between seeds with plain i.i.d. draws.
type strata struct {
	r    *rng
	perm []int
	i    int
}

func newStrata(r *rng, n int) *strata { return &strata{r: r, perm: make([]int, n)} }

func (s *strata) next() float64 {
	if s.i == 0 {
		for k := range s.perm {
			s.perm[k] = k
		}
		for k := len(s.perm) - 1; k > 0; k-- {
			j := s.r.intn(k + 1)
			s.perm[k], s.perm[j] = s.perm[j], s.perm[k]
		}
	}
	u := (float64(s.perm[s.i]) + s.r.float()) / float64(len(s.perm))
	s.i = (s.i + 1) % len(s.perm)
	return u
}

// joinOp is one op of a mobility trace.
type joinOp struct {
	leave bool
	app   int // place index
	user  string
	dwell int64 // seconds the member says it will stay (join only)
}

func (o joinOp) message(category string) wire.Message {
	if o.leave {
		return &wire.Leave{UserID: o.user, AppID: appID(category, o.app)}
	}
	return &wire.Participate{UserID: o.user, Token: "tok-" + o.user, AppID: appID(category, o.app),
		Loc: appLoc(o.app), Budget: joinBudget, LeaveAfterSec: o.dwell}
}

const joinBudget = 17

type pendingLeave struct {
	at   float64
	app  int
	user string
}

type leaveHeap []pendingLeave

func (h leaveHeap) Len() int            { return len(h) }
func (h leaveHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h leaveHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *leaveHeap) Push(x interface{}) { *h = append(*h, x.(pendingLeave)) }
func (h *leaveHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mobility generates one client's trace: Poisson arrivals in virtual time
// at the rate that holds the client's share of the population at its
// target, each arrival choosing a place by Zipf popularity and announcing
// a Pareto dwell, and each member leaving in dwell-expiry order. The
// trace is replayed closed-loop, as fast as the server answers; virtual
// time only orders the ops. Every client replays the whole popularity mix
// with users of its own, so the clients do the same work and the two of
// them meet on the hot place's lock, as phones at a popular venue do.
type mobility struct {
	client  int
	weights []float64 // cumulative Zipf weights over places
	rate    float64   // arrivals per virtual second
	now     float64
	nextArr float64
	leaves  leaveHeap
	members []int // place → this client's present members (after the op just returned)
	seq     int

	gap, place *strata
	dwell      []*strata // per place
}

// traceBlock is how many arrivals share one set of strata.
const traceBlock = 32

// newMobility returns the generator and the pre-fill ops that put the
// client's share of the target population in place: joins whose announced
// stays are what is left of a stationary member's dwell. Stays are drawn
// by strata place by place, both here and for later arrivals: a replan
// costs what the windows of the place's members add up to, so a place
// that drew its stays from the whole population's strata got the 3-hour
// member under one seed and not under the next, and its replans swung
// 25 % with it.
func newMobility(seed int64, client, places, population int) (*mobility, []joinOp) {
	r := at(seed, "mobility", client)
	m := &mobility{client: client, members: make([]int, places), dwell: make([]*strata, places)}
	var all float64
	for a := 0; a < places; a++ {
		all += 1 / float64(a+1)
		m.weights = append(m.weights, all)
	}
	target := float64(population) / nClients
	m.rate = target / dwellMean
	var prefill []joinOp
	for a := 0; a < places; a++ {
		m.dwell[a] = newStrata(r, traceBlock)
		// Cumulative rounding, so the places' members add up to target.
		n := int(math.Round(target*m.weights[a]/all)) - len(prefill)
		if n == 0 {
			continue
		}
		left := newStrata(r, n)
		for i := 0; i < n; i++ {
			prefill = append(prefill, m.join(a, math.Max(10, residualAt(left.next()))))
		}
	}
	for i := len(prefill) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		prefill[i], prefill[j] = prefill[j], prefill[i]
	}
	m.gap, m.place = newStrata(r, traceBlock), newStrata(r, traceBlock)
	m.nextArr = m.interArrival()
	return m, prefill
}

func (m *mobility) interArrival() float64 { return -math.Log(1-m.gap.next()) / m.rate }

// placeAt maps a uniform draw to a place by Zipf weight.
func (m *mobility) placeAt(u float64) int {
	x := u * m.weights[len(m.weights)-1]
	for a, w := range m.weights {
		if x < w {
			return a
		}
	}
	return len(m.weights) - 1
}

func (m *mobility) join(app int, stay float64) joinOp {
	user := fmt.Sprintf("m%d-%d", m.client, m.seq)
	m.seq++
	heap.Push(&m.leaves, pendingLeave{at: m.now + stay, app: app, user: user})
	m.members[app]++
	return joinOp{app: app, user: user, dwell: int64(math.Ceil(stay))}
}

// next returns the client's next op.
func (m *mobility) next() joinOp {
	if len(m.leaves) > 0 && m.leaves[0].at <= m.nextArr {
		l := heap.Pop(&m.leaves).(pendingLeave)
		m.now = l.at
		m.members[l.app]--
		return joinOp{leave: true, app: l.app, user: l.user}
	}
	m.now = m.nextArr
	m.nextArr = m.now + m.interArrival()
	app := m.placeAt(m.place.next())
	return m.join(app, dwellAt(m.dwell[app].next()))
}

// ---- digest ----

// digestOf is the sha256 of an encoded op stream: the same seed must give
// the same inputs, and this is how a run shows it.
func digestOf(msgs []wire.Message) (string, error) {
	h := sha256.New()
	for _, m := range msgs {
		b, err := wire.Encode(m)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// benchEpoch is the fixed instant generated sample timestamps count from,
// so encoded ops (and their digest) do not depend on when a run starts.
var benchEpoch = time.Date(2014, time.July, 1, 12, 0, 0, 0, time.UTC).UnixMilli()
