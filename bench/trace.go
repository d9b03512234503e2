package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/wire"
)

// Span names, outermost first. One op yields client.send ⊃ router.handle
// ⊃ router.forward ⊃ leader.handle on a routed workload and client.send
// ⊃ leader.handle on a stream workload.
const (
	spanOp      = "client.op" // the whole op as the harness times it: generate, send(s), check
	spanClient  = "client.send"
	spanRouter  = "router.handle"
	spanForward = "router.forward"
	spanLeader  = "leader.handle"
)

// opPrefix marks the request ids the harness mints, so replication pulls
// and cluster heartbeats crossing the same shims record nothing.
const opPrefix = "op:"

// span is one timed interval at a layer boundary. Req ties the spans of
// one wire request together; Op ties the requests of one workload op.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     string `json:"req"`
	Op      string `json:"op"`
	Msg     string `json:"msg"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps every span of a traced run in memory; nothing is written
// until the run ends. A nil tracer records nothing, so the same code
// drives traced and untraced runs.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, parent, req, msg string, start, end time.Time) {
	if t == nil || !strings.HasPrefix(req, opPrefix) {
		return
	}
	op := req
	if i := strings.LastIndexByte(req, '/'); i > 0 {
		op = req[:i]
	}
	s := span{Name: name, Parent: parent, Req: req, Op: op, Msg: msg,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.sp = append(t.sp, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sp = t.sp[:0]
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.sp...)
}

// wrapHandler times a node's public dispatch seam.
func (t *tracer) wrapHandler(name, parent string, h sor.Handler) sor.Handler {
	if t == nil {
		return h
	}
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		start := time.Now()
		resp, err := h(ctx, m)
		t.add(name, parent, string(obs.RequestIDFrom(ctx)), m.Type().String(), start, time.Now())
		return resp, err
	}
}

// timedSender times the router's forwarded sends (the cluster.Dialer seam).
type timedSender struct {
	t    *tracer
	next cluster.Sender
}

func (s timedSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	start := time.Now()
	resp, err := s.next.Send(ctx, m)
	s.t.add(spanForward, spanRouter, string(obs.RequestIDFrom(ctx)), m.Type().String(), start, time.Now())
	return resp, err
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// stage is one row of the "where the time goes" table: a layer's self
// time within one kind of request.
type stage struct {
	msg  string // request kind, e.g. "data-upload-batch"
	name string // span name
}

func (s stage) String() string { return s.msg + " " + s.name }

// breakdown is the per-request self times of a traced run: for every
// request, each span's duration minus the part its child covers.
type breakdown struct {
	// self[stage] holds one self time (µs) per request that had the stage.
	self map[stage][]float64
	// byOp[op] sums self times per stage for one workload op (µs).
	byOp map[string]map[stage]float64
	// handle[msg] holds leader.handle durations (µs) per request kind.
	handle map[string][]float64
}

// harnessStage is the part of an op outside its sends: generating the
// request and checking the answer.
var harnessStage = stage{"harness", spanOp}

// analyse computes self times: a span's duration minus the durations of
// the spans it directly contains within the same request.
func analyse(spans []span) *breakdown {
	type reqSpans struct {
		msg string
		op  string
		dur map[string]time.Duration // summed per span name
	}
	reqs := make(map[string]*reqSpans)
	opDur := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Name == spanOp {
			opDur[s.Op] = s.dur()
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &reqSpans{op: s.Op, dur: make(map[string]time.Duration, 4)}
			reqs[s.Req] = r
		}
		if s.Name == spanClient {
			r.msg = s.Msg // the kind the client sent (the router may re-batch)
		}
		r.dur[s.Name] += s.dur()
	}
	b := &breakdown{
		self:   make(map[stage][]float64),
		byOp:   make(map[string]map[stage]float64),
		handle: make(map[string][]float64),
	}
	// chain lists each span with the child whose time it contains.
	chain := []struct{ name, child, altChild string }{
		{spanClient, spanRouter, spanLeader},
		{spanRouter, spanForward, ""},
		{spanForward, spanLeader, ""},
		{spanLeader, "", ""},
	}
	for _, r := range reqs {
		if _, ok := r.dur[spanClient]; !ok {
			continue // request still in flight when the run ended
		}
		for _, c := range chain {
			d, ok := r.dur[c.name]
			if !ok {
				continue
			}
			child, ok := r.dur[c.child]
			if !ok {
				child = r.dur[c.altChild]
			}
			us := float64(d-child) / float64(time.Microsecond)
			st := stage{r.msg, c.name}
			b.self[st] = append(b.self[st], us)
			if b.byOp[r.op] == nil {
				b.byOp[r.op] = make(map[stage]float64, 8)
			}
			b.byOp[r.op][st] += us
		}
		if d, ok := r.dur[spanLeader]; ok {
			b.handle[r.msg] = append(b.handle[r.msg], float64(d)/float64(time.Microsecond))
		}
	}
	// What is left of an op after its sends is the harness's own time.
	for op, st := range b.byOp {
		total, ok := opDur[op]
		if !ok {
			delete(b.byOp, op) // the op failed or was cut off by the end of the run
			continue
		}
		var sent float64
		for _, us := range st {
			sent += us
		}
		st[harnessStage] = float64(total)/float64(time.Microsecond) - sent
	}
	return b
}

// has reports whether any request crossed a span of the name.
func (b *breakdown) has(name string) bool {
	for st := range b.self {
		if st.name == name {
			return true
		}
	}
	return false
}

// selfMedian is the median self time (µs) of a span name over the request
// kinds accepted by keep.
func (b *breakdown) selfMedian(name string, keep func(msg string) bool) float64 {
	var all []float64
	for st, v := range b.self {
		if st.name == name && keep(st.msg) {
			all = append(all, v...)
		}
	}
	return median(all)
}

// timeRow is one line of the "where the time goes" table.
type timeRow struct {
	stage  stage
	meanUs float64
}

// whereTimeGoes profiles the median op: it takes the ops whose total
// traced time lies between the 40th and 60th percentile and averages each
// stage's self time over them, so the rows sum to (very nearly) the
// traced p50 by construction rather than by luck of adding medians.
func (b *breakdown) whereTimeGoes() (rows []timeRow, sumUs float64) {
	type opTotal struct {
		op    string
		total float64
	}
	totals := make([]opTotal, 0, len(b.byOp))
	for op, st := range b.byOp {
		var t float64
		for _, us := range st {
			t += us
		}
		totals = append(totals, opTotal{op, t})
	}
	if len(totals) == 0 {
		return nil, 0
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].total < totals[j].total })
	lo, hi := len(totals)*2/5, len(totals)*3/5
	if hi <= lo {
		lo, hi = 0, len(totals)
	}
	acc := make(map[stage]float64)
	for _, ot := range totals[lo:hi] {
		for st, us := range b.byOp[ot.op] {
			acc[st] += us
		}
	}
	n := float64(hi - lo)
	for st, us := range acc {
		rows = append(rows, timeRow{st, us / n})
		sumUs += us / n
	}
	order := map[string]int{spanClient: 0, spanRouter: 1, spanForward: 2, spanLeader: 3, spanOp: 4}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].stage.msg != rows[j].stage.msg {
			return rows[i].stage != harnessStage && (rows[j].stage == harnessStage || rows[i].stage.msg < rows[j].stage.msg)
		}
		return order[rows[i].stage.name] < order[rows[j].stage.name]
	})
	return rows, sumUs
}

// formatTimeTable renders the table with the share of each row.
func formatTimeTable(rows []timeRow, sumUs, p50Ms float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-42s %12s %7s\n", "stage (self time, median op)", "us", "share")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-42s %12.1f %6.1f%%\n", r.stage, r.meanUs, 100*r.meanUs/sumUs)
	}
	fmt.Fprintf(&sb, "  %-42s %12.1f  (traced p50 %.1f us, ratio %.3f)\n",
		"sum", sumUs, p50Ms*1000, sumUs/(p50Ms*1000))
	return sb.String()
}
