// Command bench is SOR's one end-to-end benchmark: four workloads over
// real sor.StartNode nodes on TCP loopback, driven by two closed-loop
// clients, with correctness gates, six gated end-to-end metrics and (in a
// traced run) the per-layer numbers behind them. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "ingest|rank|fresh|join|all")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "length of the measured phase")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced, reports the end-to-end metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the spans here as JSON lines when the run ends")
		repeat       = flag.Int("repeat", 0, "run N full untraced sets and report each end-to-end metric's spread against its bound")
		dataRoot     = flag.String("data", ".bench_build/data", "directory the nodes' data dirs are made under")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	names := workloadNames
	if *workloadFlag != "all" {
		if _, err := newWorkload(*workloadFlag); err != nil {
			fatalf("%v", err)
		}
		names = []string{*workloadFlag}
	}
	base := config{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut,
		dataRoot: *dataRoot, sz: fullSizes(), setups: 3, probeBudget: 250 * time.Millisecond, log: os.Stderr}
	fmt.Fprintf(os.Stderr, "sor bench: seed %d, %.3g s measured, GOMAXPROCS %d, %d closed-loop clients, WAL sync policy os\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), nClients)

	if *repeat > 0 {
		if !repeatSets(base, names, *repeat) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		cfg := base
		cfg.workload = name
		res, err := runOnce(&cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		res.report(os.Stderr)
		// The machine-readable result is the last line of standard output.
		line, err := json.Marshal(res.wire())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count or source, for the human report
}

// metricSet is an ordered list of metrics.
type metricSet struct{ list []metric }

func (m *metricSet) add(name, unit string, value float64, note string) {
	m.list = append(m.list, metric{name, unit, value, note})
}

func (m *metricSet) get(name string) float64 {
	for _, x := range m.list {
		if x.name == name {
			return x.value
		}
	}
	return 0
}

// result is one run of one workload.
type result struct {
	workload  string
	digest    string
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
	problems  []string // failed gates and failed ops
	notes     []string // guards that make a number unresolved
	table     string   // "where the time goes" (traced runs)
}

// wireResult is the one JSON object a run prints last.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) wire() wireResult {
	out := wireResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]wireMetric, len(r.metrics.list))}
	for _, m := range r.metrics.list {
		out.Metrics[m.name] = wireMetric{m.value, m.unit}
	}
	return out
}

// report prints every metric by name with its unit.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  workload_digest %s\n", r.workload, r.digest)
	for _, m := range r.metrics.list {
		fmt.Fprintf(w, "  %-32s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	if r.table != "" {
		fmt.Fprintf(w, "\n  where the time goes (%s)\n%s", r.workload, r.table)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  UNRESOLVED: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	verdict := "correct"
	if !r.correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(w, "  %s: %d ops attempted, %d failed\n", verdict, r.attempted, r.failed)
}

// runOnce runs one workload once, untraced or traced.
func runOnce(cfg *config) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// runUntraced measures the end-to-end metrics. Set-up runs cfg.setups
// times; setup_s and recover_s are medians over the repetitions, and the
// last topology is the one measured. The live heap is read on the first
// one, before any closed topology has left garbage behind (a store let go
// of over the next few collections read as 23 % more live heap in three
// runs of ten).
func runUntraced(cfg *config) (*result, error) {
	var setupS, recoverS []float64
	var heap float64
	var pr *prepared
	for i := 0; i < cfg.setups; i++ {
		if pr != nil {
			pr.bed.close()
		}
		var err error
		if pr, err = prepare(cfg, nil); err != nil {
			return nil, err
		}
		if i == 0 {
			heap = liveHeapMB()
		}
		setupS = append(setupS, pr.setupS)
		recoverS = append(recoverS, pr.recoverS...)
	}
	defer pr.bed.close()
	res := &result{workload: cfg.workload}
	var err error
	if res.digest, err = pr.w.digest(); err != nil {
		return nil, err
	}
	before := readCounters(pr.w.leaders())
	p := measure(cfg, pr.w, nil, cfg.seconds)
	res.timerGuard(cfg, before, readCounters(pr.w.leaders()))
	res.finish(pr.w, p)

	rate, lat := p.windowed()
	fmt.Fprintf(cfg.log, "%s: ops/s per window %.0f\n", cfg.workload, rate)
	fmt.Fprintf(cfg.log, "%s: p50 ms per window %.4g\n", cfg.workload, windowQuantiles(lat, 0.50))
	fmt.Fprintf(cfg.log, "%s: p90 ms per window %.4g\n", cfg.workload, windowQuantiles(lat, 0.90))
	fmt.Fprintf(cfg.log, "%s: setup s %.4g recover s %.4g\n", cfg.workload, setupS, recoverS)
	n := fmt.Sprintf("median of %d windows, n=%d", windows, res.attempted-res.failed)
	res.metrics.add("setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS)))
	res.metrics.add("ops_per_s", "1/s", median(rate), n)
	res.metrics.add("p50_ms", "ms", windowMedian(lat, 0.50), n)
	res.metrics.add("p90_ms", "ms", windowMedian(lat, 0.90), n)
	res.metrics.add("recover_s", "s", median(recoverS), fmt.Sprintf("median of %d kill→reopen cycles; process kill only, the page cache survives", len(recoverS)))
	res.metrics.add("live_heap_mb", "MB", heap, "HeapAlloc after forced GC, set-up state, nodes open")
	return res, nil
}

// finish records the measured phase's failures and runs the workload's
// correctness gate.
func (r *result) finish(w workload, p *phase) {
	r.attempted, r.failed = p.attempted(), p.failed()
	r.correct = true
	for c := range p.clients {
		for _, err := range p.clients[c].errs {
			r.problems = append(r.problems, fmt.Sprintf("client %d op: %v", c, err))
		}
	}
	if p.ckptErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("mid-run checkpoint: %v", p.ckptErr))
	}
	if r.attempted == 0 {
		r.problems = append(r.problems, "no op completed")
	}
	if err := w.verify(context.Background()); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("correctness gate: %v", err))
	}
	if r.failed > 0 || len(r.problems) > 0 {
		r.correct = false
	}
}

// ---- -repeat ----

// repeatSets runs n full untraced sets and prints, per workload and
// end-to-end metric, min / median / max and the quartile spread against
// the metric's bound. It reports false when a spread exceeds its bound.
func repeatSets(base config, names []string, n int) bool {
	bounds, err := loadBounds()
	if err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, name := range names {
		values := make(map[string][]float64)
		var order []string
		for i := 0; i < n; i++ {
			cfg := base
			cfg.workload = name
			res, err := runUntraced(&cfg)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			res.report(os.Stderr)
			ok = ok && res.correct
			for _, m := range res.metrics.list {
				if _, seen := values[m.name]; !seen {
					order = append(order, m.name)
				}
				values[m.name] = append(values[m.name], m.value)
			}
		}
		fmt.Printf("\n%s: %d sets, seed %d\n  %-14s %12s %12s %12s %9s %7s\n", name, n, base.seed,
			"metric", "min", "median", "max", "spread", "bound")
		for _, m := range order {
			v := sortedCopy(values[m])
			spread := quartileSpread(v)
			verdict := ""
			if m != "setup_s" && spread > bounds[m] {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("  %-14s %12.6g %12.6g %12.6g %8.1f%% %6.0f%%%s\n", m, v[0], quantile(v, 0.5), v[len(v)-1],
				100*spread, 100*bounds[m], verdict)
		}
	}
	return ok
}

// quartileSpread is (Q3 − Q1) / median with the exclusive quartiles of
// Python's statistics.quantiles(v, n=4), which is what the acceptance
// check computes.
func quartileSpread(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		lo := int(pos)
		if lo < 1 {
			return sorted[0]
		}
		if lo >= n {
			return sorted[n-1]
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// loadBounds reads the regression bounds from BENCHMARK.json, found in the
// working directory or its parent (go run -C bench runs from bench/).
func loadBounds() (map[string]float64, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading the bounds: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
