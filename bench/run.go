package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"sor/internal/obs"
	"sor/internal/wire"
)

// nClients is the number of closed-loop clients: one per vCPU of the
// reference host. A device waits for its ack and a ranking user waits for
// the answer, so a closed loop is the honest model, and a slow server
// receives less load rather than a growing queue.
const nClients = 2

// config is one run's fixed conditions.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	dataRoot string // data dirs are made under it and removed afterwards
	sz       sizes
	setups   int // set-up repetitions; setup_s and recover_s are medians over them
	// probeBudget caps the time one in-process probe may spend (traced runs).
	probeBudget time.Duration
	log         io.Writer // human-readable report
}

// workload is one traffic mix over one topology. build leaves a fixed,
// seeded state behind (so recovery time, heap and the first measured op
// do not depend on how fast an earlier phase ran); op is what the
// measured phase repeats.
type workload interface {
	// build starts the topology on b, seeds it, and pre-fills the fixed
	// state through the clients, checkpointing every durable leader midway
	// so recovery replays a snapshot plus a WAL tail.
	build(cfg *config, b *bed) error
	// leaders are the durable leaders; the first is the crash target.
	leaders() []*node
	// first is the first request after a reopen: recovery ends when it is
	// answered.
	first(o *opCtx) error
	// survived checks that every op acked so far is still held.
	survived() error
	// warm runs discarded ops on the recovered topology.
	warm(ctx context.Context) error
	// op runs client c's next op to completion; an error is a failed op.
	op(o *opCtx, c int) error
	// verify is the workload's correctness gate after the measured phase.
	verify(ctx context.Context) error
	// digest is the sha256 of the head of the encoded op stream.
	digest() (string, error)
	// layers adds the workload's own per-layer metrics (traced runs); it
	// runs after verify, on the reopened end state.
	layers(e *probeEnv, lv *layerValues) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingestWorkload{}, nil
	case "rank":
		return &rankWorkload{}, nil
	case "fresh":
		return &freshWorkload{}, nil
	case "join":
		return &joinWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (ingest|rank|fresh|join)", name)
}

var workloadNames = []string{"ingest", "rank", "fresh", "join"}

// opCtx carries one op's identity through its sends. In a traced run the
// request id rides the wire envelope to every node the op touches, which
// is how the shims' spans find their op.
type opCtx struct {
	ctx   context.Context
	tr    *tracer
	id    string // "op:<client>-<seq>"; empty when untraced
	k     int    // requests sent so far
	parts [2]time.Duration
	keep  *[]wire.Message // captured requests for the probes, nil when full
}

// send is one closed-loop request: it returns when the reply is in.
func (o *opCtx) send(s sender, m wire.Message) (wire.Message, error) {
	ctx, req := o.ctx, ""
	if o.tr != nil {
		req = fmt.Sprintf("%s/%d", o.id, o.k)
		ctx = obs.WithRequestID(ctx, obs.RequestID(req))
		if o.keep != nil {
			*o.keep = append(*o.keep, m)
		}
	}
	t0 := time.Now()
	resp, err := s.Send(ctx, m)
	t1 := time.Now()
	if o.k < len(o.parts) {
		o.parts[o.k] = t1.Sub(t0)
	}
	o.k++
	o.tr.add(spanClient, "", req, m.Type().String(), t0, t1)
	return resp, err
}

// plainOp is an op context outside the measured phase.
func plainOp(ctx context.Context) *opCtx { return &opCtx{ctx: ctx} }

// eachClient runs fn for every client at once and returns the first
// client's error, if any.
func eachClient(fn func(c int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs n ops per client outside the measured phase (pre-fill and
// warm-up), both clients at once.
func drive(ctx context.Context, w workload, n int) error {
	return eachClient(func(c int) error {
		for i := 0; i < n; i++ {
			if err := w.op(plainOp(ctx), c); err != nil {
				return err
			}
		}
		return nil
	})
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	lat    []time.Duration // per answered op
	end    []time.Duration // completion time since phase start, parallel to lat
	parts  [2][]time.Duration
	failed int
	errs   []error // first few
	keep   []wire.Message
}

// phase is one measured phase's raw outcome.
type phase struct {
	clients  [nClients]clientLog
	elapsed  time.Duration
	ckptAt   time.Duration // checkpoint start since phase start
	ckptTook time.Duration
	ckptErr  error
}

func (p *phase) attempted() int {
	n := 0
	for i := range p.clients {
		n += len(p.clients[i].lat) + p.clients[i].failed
	}
	return n
}

func (p *phase) failed() int {
	n := 0
	for i := range p.clients {
		n += p.clients[i].failed
	}
	return n
}

// pooledMs pools one series of every client's log, in ms, sorted.
func (p *phase) pooledMs(of func(*clientLog) []time.Duration) []float64 {
	var out []float64
	for i := range p.clients {
		for _, d := range of(&p.clients[i]) {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// latenciesMs pools every client's op latencies, sorted.
func (p *phase) latenciesMs() []float64 {
	return p.pooledMs(func(cl *clientLog) []time.Duration { return cl.lat })
}

// partMs pools the k-th request's share of every two-request op.
func (p *phase) partMs(k int) []float64 {
	return p.pooledMs(func(cl *clientLog) []time.Duration { return cl.parts[k] })
}

// windows is how many equal slices the measured phase is cut into. Each
// gated rate or percentile is computed per slice and reported as the
// median over slices, so a burst of host noise (or the mid-run checkpoint,
// which has its own per-layer metrics) moves one slice, not the result.
const windows = 10

// windowed returns, per slice of the phase, the answered ops per second
// and the sorted latencies (ms) of the ops that completed in it. The
// slices tile the phase as it ran (the last op ends a little after the
// deadline), not as it was asked for.
func (p *phase) windowed() (rate []float64, lat [][]float64) {
	width := p.elapsed/windows + 1
	lat = make([][]float64, windows)
	for i := range p.clients {
		cl := &p.clients[i]
		for j, end := range cl.end {
			if w := int(end / width); w < windows {
				lat[w] = append(lat[w], float64(cl.lat[j])/float64(time.Millisecond))
			}
		}
	}
	for w := range lat {
		sort.Float64s(lat[w])
		rate = append(rate, float64(len(lat[w]))/width.Seconds())
	}
	return rate, lat
}

// windowQuantiles is each non-empty slice's q-quantile.
func windowQuantiles(lat [][]float64, q float64) []float64 {
	var per []float64
	for _, l := range lat {
		if len(l) > 0 {
			per = append(per, quantile(l, q))
		}
	}
	return per
}

// windowMedian is the median over slices of each slice's q-quantile.
func windowMedian(lat [][]float64, q float64) float64 { return median(windowQuantiles(lat, q)) }

// captureLimit bounds the requests kept for the probes.
const captureLimit = 2048

// checkpointAt is the share of the measured phase after which the harness
// checkpoints every durable leader, once, so the foreground stall is
// inside every run at the same place. It is late rather than midway
// because an ingest run is slower after its checkpoint than before it
// (the snapshot's writeback competes with the WAL): at 50 % the median
// window sat on the boundary between the two regimes and flipped between
// them from run to run. At 70 % the gated rates read the steady state
// before the checkpoint, and the stall and the slowdown after it have
// per-layer metrics of their own (store.ckpt_*).
const checkpointAt = 0.7

// measure drives the closed-loop clients for seconds and checkpoints
// every durable leader once (see checkpointAt).
func measure(cfg *config, w workload, tr *tracer, seconds float64) *phase {
	p := &phase{}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &p.clients[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				o := opCtx{ctx: ctx, tr: tr}
				if tr != nil {
					o.id = fmt.Sprintf("%s%d-%d", opPrefix, c, i)
					if len(cl.keep) < captureLimit {
						o.keep = &cl.keep
					}
				}
				err := w.op(&o, c)
				t1 := time.Now()
				if err != nil {
					cl.failed++
					if len(cl.errs) < 3 {
						cl.errs = append(cl.errs, err)
					}
					continue
				}
				tr.add(spanOp, "", o.id, "", t0, t1)
				cl.lat = append(cl.lat, t1.Sub(t0))
				cl.end = append(cl.end, t1.Sub(start))
				for k := 0; k < o.k && k < len(o.parts); k++ {
					cl.parts[k] = append(cl.parts[k], o.parts[k])
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Duration(seconds * checkpointAt * float64(time.Second)))
		p.ckptAt = time.Since(start)
		for _, n := range w.leaders() {
			if err := n.running().Checkpoint(); err != nil {
				p.ckptErr = err
			}
		}
		p.ckptTook = time.Since(start) - p.ckptAt
	}()
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// stall is the longest op that overlapped the mid-run checkpoint.
func (p *phase) stall() time.Duration {
	var worst time.Duration
	for i := range p.clients {
		cl := &p.clients[i]
		for j, end := range cl.end {
			if begin := end - cl.lat[j]; end >= p.ckptAt && begin <= p.ckptAt+p.ckptTook && cl.lat[j] > worst {
				worst = cl.lat[j]
			}
		}
	}
	return worst
}

// prepared is a set-up topology, recovered and warmed.
type prepared struct {
	bed      *bed
	w        workload
	setupS   float64
	recoverS []float64 // one per kill→reopen cycle
}

// recoverCycles is how many times a set-up kills and reopens the first
// leader. A reopen takes 0.1 – 0.4 s, so the median of one cycle per
// set-up moved 8 – 15 % with the host's jitter alone.
const recoverCycles = 5

// prepare runs one full set-up: topology, seeding, pre-fill,
// recoverCycles kill→reopen cycles of the first leader (each timed until
// the first request is answered; afterwards every acked op must still be
// held), warm-up.
func prepare(cfg *config, tr *tracer) (*prepared, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	b, err := newBed(cfg.dataRoot, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*prepared, error) {
		b.close()
		return nil, err
	}
	if err := w.build(cfg, b); err != nil {
		return fail(fmt.Errorf("%s: set-up: %w", cfg.workload, err))
	}
	leader := w.leaders()[0]
	var recoverS []float64
	for i := 0; i < recoverCycles; i++ {
		leader.crash()
		tR := time.Now()
		if err := leader.reopen(); err != nil {
			return fail(err)
		}
		if err := w.first(plainOp(context.Background())); err != nil {
			return fail(fmt.Errorf("%s: first request after reopen: %w", cfg.workload, err))
		}
		recoverS = append(recoverS, time.Since(tR).Seconds())
	}
	if err := w.survived(); err != nil {
		return fail(fmt.Errorf("%s: after kill and reopen: %w", cfg.workload, err))
	}
	if err := w.warm(context.Background()); err != nil {
		return fail(fmt.Errorf("%s: warm-up: %w", cfg.workload, err))
	}
	return &prepared{bed: b, w: w, setupS: time.Since(t0).Seconds(), recoverS: recoverS}, nil
}

// liveHeapMB is the live heap of the whole process: HeapAlloc after two
// forced collections (the second frees what the first one's finalizers
// and emptied pools released), as the median of five readings 200 ms
// apart. Straight after warm-up one reading in twelve caught
// 40 % more in flight, and the nodes settle 3 % higher within a second.
// HeapInuse would add the free slots of partly used spans, which swung
// 18 % between identical runs.
func liveHeapMB() float64 {
	var reads []float64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reads = append(reads, float64(ms.HeapAlloc)/(1<<20))
	}
	return median(reads)
}
