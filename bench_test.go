// Benchmarks regenerating every table and figure of the paper's §V
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Custom metrics attach the reproduced quantities (coverage,
// improvement) to the benchmark output so `go test -bench` doubles as the
// experiment runner:
//
//	go test -bench=Fig -benchmem        # all figures
//	go test -bench=Table -benchmem      # both tables
//	go test -bench=Ablation -benchmem   # ablations
package sor_test

import (
	"math/rand"
	"testing"
	"time"

	"sor"
	"sor/internal/fieldtest"
	"sor/internal/rankagg"
	"sor/internal/sim"
	"sor/internal/world"
)

// ---- Fig. 6 / Table I (§V-A) ----

// BenchmarkFig6FeatureDataTrails regenerates the Fig. 6 feature data by
// running the full hiking-trail field test (7 phones per trail, real HTTP
// server, Lua scripts, binary uploads).
func BenchmarkFig6FeatureDataTrails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sor.RunFieldTest(sor.FieldTestConfig{
			Category:       world.CategoryTrail,
			PhonesPerPlace: 7,
			Budget:         20,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Features) != 3 {
			b.Fatalf("features for %d places", len(res.Features))
		}
		if i == 0 {
			b.ReportMetric(res.Features[world.CliffTrail]["roughness"], "cliff-roughness")
			b.ReportMetric(res.Features[world.GreenLakeTrail]["humidity"], "greenlake-humidity")
		}
	}
}

// BenchmarkTableIHikingRankings regenerates Table I from the calibrated
// feature matrix (the ranking algorithm alone; the full pipeline is
// covered by BenchmarkFig6FeatureDataTrails).
func BenchmarkTableIHikingRankings(b *testing.B) {
	matrix := trailMatrix()
	profiles := fieldtest.Profiles(world.CategoryTrail)
	want := fieldtest.ExpectedRankings(world.CategoryTrail)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sor.RankAll(matrix, profiles)
		if err != nil {
			b.Fatal(err)
		}
		for name, res := range out {
			for pos, place := range res.Order {
				if want[name][pos] != place {
					b.Fatalf("%s ranking deviates from Table I: %v", name, res.Order)
				}
			}
		}
	}
}

// ---- Fig. 10 / Table II (§V-B) ----

// BenchmarkFig10FeatureDataCoffee regenerates the Fig. 10 feature data by
// running the full coffee-shop field test (12 phones per shop).
func BenchmarkFig10FeatureDataCoffee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sor.RunFieldTest(sor.FieldTestConfig{
			Category:             world.CategoryCoffee,
			PhonesPerPlace:       12,
			Budget:               20,
			Seed:                 int64(i + 1),
			BluetoothFailureRate: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Features[world.Starbucks]["noise"], "starbucks-noise")
			b.ReportMetric(res.Features[world.TimHortons]["brightness"], "timhortons-lux")
		}
	}
}

// BenchmarkTableIICoffeeRankings regenerates Table II from the calibrated
// feature matrix.
func BenchmarkTableIICoffeeRankings(b *testing.B) {
	matrix := coffeeMatrix()
	profiles := fieldtest.Profiles(world.CategoryCoffee)
	want := fieldtest.ExpectedRankings(world.CategoryCoffee)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sor.RankAll(matrix, profiles)
		if err != nil {
			b.Fatal(err)
		}
		for name, res := range out {
			for pos, place := range res.Order {
				if want[name][pos] != place {
					b.Fatalf("%s ranking deviates from Table II: %v", name, res.Order)
				}
			}
		}
	}
}

// ---- Fig. 14 (§V-C) ----

// BenchmarkFig14aCoverageVsUsers regenerates the Fig. 14(a) sweep (users
// 10..55, budget 17). The coverage endpoints are attached as metrics.
func BenchmarkFig14aCoverageVsUsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := sor.SweepUsers(sim.Fig14aUsers(), 17, sor.SimConfig{
			Runs: 2, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		if last.GreedyMean <= last.BaselineMean {
			b.Fatal("greedy lost to baseline")
		}
		if i == 0 {
			b.ReportMetric(last.GreedyMean, "greedy@55users")
			b.ReportMetric(last.BaselineMean, "baseline@55users")
		}
	}
}

// BenchmarkFig14bCoverageVsBudget regenerates the Fig. 14(b) sweep
// (budgets 15..25, 40 users).
func BenchmarkFig14bCoverageVsBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := sor.SweepBudget(sim.Fig14bBudgets(), 40, sor.SimConfig{
			Runs: 2, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		var improvement float64
		for _, p := range points {
			improvement += p.Improvement()
		}
		if i == 0 {
			b.ReportMetric(improvement/float64(len(points))*100, "avg-improvement-%")
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationLazyGreedy measures the scheduler's greedy (the lazy
// engine; TestLazyGreedyMatchesEagerExactly holds it to the printed
// Algorithm 1 scan) at the §V-C operating point.
func BenchmarkAblationLazyGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := sor.RunSim(sor.SimConfig{
			Users: 40, Budget: 17, Runs: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(o.GreedyMean, "coverage")
		}
	}
}

// BenchmarkAblationSigma sweeps the Gaussian kernel σ — the knob §III says
// distinguishes slow features (temperature) from fast ones (acceleration).
func BenchmarkAblationSigma(b *testing.B) {
	for _, sigma := range []float64{5, 10, 20, 40} {
		b.Run(sigmaName(sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := sor.RunSim(sor.SimConfig{
					Users: 40, Budget: 17, Runs: 1, Seed: int64(i + 1),
					Sigma: sigma,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(o.GreedyMean, "coverage")
				}
			}
		})
	}
}

func sigmaName(s float64) string {
	switch s {
	case 5:
		return "sigma5s"
	case 10:
		return "sigma10s"
	case 20:
		return "sigma20s"
	default:
		return "sigma40s"
	}
}

// BenchmarkAblationOnlineVsOffline replays the §V-C workload through the
// event-driven online scheduler and reports its competitive ratio against
// the clairvoyant offline greedy.
func BenchmarkAblationOnlineVsOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := sor.RunOnlineSim(sor.SimConfig{
			Users: 40, Budget: 17, Runs: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(o.CompetitiveRatio(), "online/offline")
			b.ReportMetric(o.Replans, "replans")
		}
	}
}

// BenchmarkAblationAggregators compares the three rank aggregators on
// random 8-place, 5-feature instances: the paper's footrule/min-cost-flow
// (exact footrule, 2-approx Kemeny), exact weighted Kemeny (Held–Karp) and
// Borda.
func BenchmarkAblationAggregators(b *testing.B) {
	mkCollection := func(rng *rand.Rand) rankagg.Collection {
		var c rankagg.Collection
		for j := 0; j < 5; j++ {
			r := make(rankagg.Ranking, 8)
			for i := range r {
				r[i] = i
			}
			rng.Shuffle(len(r), func(x, y int) { r[x], r[y] = r[y], r[x] })
			c.Rankings = append(c.Rankings, r)
			c.Weights = append(c.Weights, float64(1+rng.Intn(5)))
		}
		return c
	}
	b.Run("footrule-mincostflow", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, _, err := rankagg.FootruleAggregate(mkCollection(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-kemeny-heldkarp", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, _, err := rankagg.ExactKemeny(mkCollection(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("borda", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := rankagg.BordaAggregate(mkCollection(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- shared fixtures ----

func trailMatrix() *sor.Matrix {
	return &sor.Matrix{
		Places: []string{world.GreenLakeTrail, world.LongTrail, world.CliffTrail},
		Features: []sor.Feature{
			{Name: "temperature", Unit: "°F", Default: sor.Preference{Kind: sor.PrefValue, Value: 73}},
			{Name: "humidity", Unit: "%", Default: sor.Preference{Kind: sor.PrefValue, Value: 45}},
			{Name: "roughness", Unit: "m/s²", Default: sor.Preference{Kind: sor.PrefMin}},
			{Name: "curvature", Unit: "°/100m", Default: sor.Preference{Kind: sor.PrefMin}},
			{Name: "altitude change", Unit: "m", Default: sor.Preference{Kind: sor.PrefMin}},
		},
		Values: [][]float64{
			{46, 68, 0.5, 25, 5},
			{50, 55, 0.9, 45, 15},
			{49, 50, 1.4, 70, 28},
		},
	}
}

func coffeeMatrix() *sor.Matrix {
	return &sor.Matrix{
		Places: []string{world.TimHortons, world.BNCafe, world.Starbucks},
		Features: []sor.Feature{
			{Name: "temperature", Unit: "°F", Default: sor.Preference{Kind: sor.PrefValue, Value: 73}},
			{Name: "brightness", Unit: "lux", Default: sor.Preference{Kind: sor.PrefMax}},
			{Name: "noise", Default: sor.Preference{Kind: sor.PrefMin}},
			{Name: "wifi", Unit: "dBm", Default: sor.Preference{Kind: sor.PrefMax}},
		},
		Values: [][]float64{
			{66, 1000, 0.05, -62},
			{71, 400, 0.08, -50},
			{73, 150, 0.18, -72},
		},
	}
}

// BenchmarkAblationEnergyAware measures the energy-aware dual scheduler
// (reach 50% coverage at minimum energy) on the §V-C workload shape and
// reports the energy spent vs the full coverage greedy's implied cost.
func BenchmarkAblationEnergyAware(b *testing.B) {
	start := benchStart()
	for i := 0; i < b.N; i++ {
		parts := benchParticipants(int64(i+1), 20, 17)
		plan, err := sor.ScheduleEnergyAware(sor.SensingRequest{
			Start: start, Period: time.Hour, Participants: parts,
		}, 0.5, sor.UniformEnergy{MilliJ: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(plan.EnergyMilliJ, "energy-mJ")
			b.ReportMetric(plan.AverageCoverage, "coverage")
		}
	}
}

func benchStart() time.Time {
	return time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
}

func benchParticipants(seed int64, users, budget int) []sor.Participant {
	rng := rand.New(rand.NewSource(seed))
	start := benchStart()
	total := int64(3600)
	parts := make([]sor.Participant, 0, users)
	for i := 0; i < users; i++ {
		arrive := rng.Int63n(total)
		leave := arrive + rng.Int63n(total-arrive+1)
		parts = append(parts, sor.Participant{
			UserID: "u" + string(rune('A'+i%26)) + string(rune('0'+i/26)),
			Arrive: start.Add(time.Duration(arrive) * time.Second),
			Leave:  start.Add(time.Duration(leave) * time.Second),
			Budget: budget,
		})
	}
	return parts
}
