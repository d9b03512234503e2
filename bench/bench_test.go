package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallConfig is a workload at 1/100 scale with a measured phase just long
// enough to cross the mid-run checkpoint.
func smallConfig(t *testing.T, workload string, seed int64, trace bool) *config {
	t.Helper()
	return &config{workload: workload, seed: seed, seconds: 0.3, trace: trace,
		dataRoot: t.TempDir(), sz: testSizes(), setups: 1, probeBudget: 5 * time.Millisecond, log: io.Discard}
}

// TestWorkloadsSmall runs every workload untraced at 1/100 scale: every
// correctness gate must pass and every end-to-end metric must be a
// positive number.
func TestWorkloadsSmall(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := runOnce(smallConfig(t, name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("not correct: %v", res.problems)
			}
			for _, want := range endToEndNames(t) {
				if v := res.metrics.get(want); !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", want, v)
				}
			}
		})
	}
}

// TestTracedSmall runs the traced path of every workload: it must report
// every per-layer metric and spans from every hop of the topology.
func TestTracedSmall(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(t, name, 1, true)
			cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("not correct: %v", res.problems)
			}
			if len(res.metrics.list) != len(layerMetrics) {
				t.Fatalf("reported %d per-layer metrics, want %d", len(res.metrics.list), len(layerMetrics))
			}
			for _, want := range []string{"trace.spans", "trace.stage_sum_ratio", "wire.bytes_per_msg", "proc.cpu_us_per_op"} {
				if res.metrics.get(want) <= 0 {
					t.Errorf("%s = %v, want > 0", want, res.metrics.get(want))
				}
			}
			if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("trace-out not written: %v", err)
			}
			if res.table == "" {
				t.Error("no where-the-time-goes table")
			}
		})
	}
}

// TestDigestSeeded: the same seed gives the same op stream and another
// seed a different one.
func TestDigestSeeded(t *testing.T) {
	digestFor := func(name string, seed int64) string {
		cfg := smallConfig(t, name, seed, false)
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newBed(cfg.dataRoot, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		if err := w.build(cfg, b); err != nil {
			t.Fatal(err)
		}
		d, err := w.digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, name := range workloadNames {
		a, b, c := digestFor(name, 7), digestFor(name, 7), digestFor(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func endToEndNames(t *testing.T) []string {
	var names []string
	for _, m := range loadSpec(t).EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestStrataCoverEverySlice: n draws land once in each of n slices.
func TestStrataCoverEverySlice(t *testing.T) {
	s := newStrata(at(1, "strata-test", 0), 16)
	for round := 0; round < 3; round++ {
		seen := make(map[int]bool)
		for i := 0; i < 16; i++ {
			seen[int(s.next()*16)] = true
		}
		if len(seen) != 16 {
			t.Fatalf("round %d hit %d of 16 slices", round, len(seen))
		}
	}
}

// TestResidualLaw pins the closed forms of the dwell law against
// numerical integration and the residual quantile against its survival
// function.
func TestResidualLaw(t *testing.T) {
	const steps = 200000
	var mean float64
	for i := 0; i < steps; i++ {
		mean += dwellAt((float64(i) + 0.5) / steps)
	}
	mean /= steps
	if math.Abs(mean-dwellMean) > 1e-3*dwellMean {
		t.Errorf("dwellMean = %v, mean of the quantile function %v", dwellMean, mean)
	}
	for _, u := range []float64{0.01, 0.3, 0.5, 0.9, 0.99, 0.999} {
		r := residualAt(u)
		if got := 1 - dwellBeyond(r)/dwellMean; math.Abs(got-u) > 1e-9 {
			t.Errorf("residualAt(%v) = %v, where the law reads %v", u, r, got)
		}
	}
}
