// Command sorsim reproduces the paper's Fig. 14 scheduling simulation:
// greedy coverage maximization vs the every-10-seconds baseline, sweeping
// the number of mobile users (Fig. 14a) or the per-user sensing budget
// (Fig. 14b).
//
// Usage:
//
//	sorsim -sweep users              # Fig. 14(a)
//	sorsim -sweep budget             # Fig. 14(b)
//	sorsim -sweep both -svg out/     # both, plus SVG plots
//	sorsim -sweep online             # online vs clairvoyant offline
//	sorsim -sweep chaos              # exactly-once ingest under a faulty network
//	sorsim -fleet -phones 100000     # deterministic virtual-day fleet simulation
//	sorsim -fleet -transport stream  # same fleet over persistent sessions
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"sor/internal/chaos"
	"sor/internal/fleetsim"
	"sor/internal/sim"
	"sor/internal/viz"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("sorsim: %v", err)
	}
}

func run() error {
	sweep := flag.String("sweep", "both", "which sweep to run: users | budget | both | online | chaos")
	runs := flag.Int("runs", 10, "random instances per point (the paper averages 10)")
	seed := flag.Int64("seed", 2013, "random seed")
	budget := flag.Int("budget", 17, "per-user budget for the users sweep (paper: 17)")
	users := flag.Int("users", 40, "user count for the budget sweep (paper: 40)")
	svgDir := flag.String("svg", "", "optional directory for SVG plots")
	fleet := flag.Bool("fleet", false, "run the deterministic discrete-event fleet simulation instead of a sweep")
	phones := flag.Int("phones", 10000, "fleet size for -fleet")
	perApp := flag.Int("per-app", 100, "phones per application shard for -fleet")
	fleetBudget := flag.Int("fleet-budget", 2, "per-phone budget for -fleet")
	step := flag.Duration("step", 5*time.Minute, "timeline step for -fleet")
	period := flag.Duration("period", 24*time.Hour, "scheduling period for -fleet")
	loss := flag.Float64("loss", 0.05, "request loss probability for -fleet")
	ackLoss := flag.Float64("ack-loss", 0.05, "ack loss probability for -fleet")
	partition := flag.Duration("partition", time.Hour, "partition duration for -fleet (0 = none)")
	verify := flag.Bool("verify", false, "with -fleet: run the same seed twice and require identical digests")
	coverageCurve := flag.Bool("coverage", false, "with -fleet: print the hourly coverage curve")
	rankPlaces := flag.Int("rank-places", 0, "with -fleet: seed a static rank category of this many places and serve bounded rank queries across the virtual day (0 = off; the columnar read-path soak uses 10000)")
	rankQueries := flag.Int("rank-queries", 96, "with -fleet -rank-places: rank queries spread over the period")
	rankTopK := flag.Int("rank-topk", 10, "with -fleet -rank-places: response bound per rank query")
	transport := flag.String("transport", "http", "with -fleet: modeled transport, http (one-shot) or stream (persistent sessions)")
	flag.Parse()

	if *seed == 0 {
		return errors.New("-seed 0: 0 is not a seed — sor.Retry reads it as \"seed the jitter from the wall clock\", so the run would not replay; use any nonzero value")
	}
	if *fleet {
		return runFleet(fleetsim.Config{
			Phones:       *phones,
			PhonesPerApp: *perApp,
			Budget:       *fleetBudget,
			Seed:         *seed,
			Period:       *period,
			Step:         *step,
			RequestLoss:  *loss,
			AckLoss:      *ackLoss,
			SpikeProb:    0.02,
			Spike:        time.Second,
			PartitionFor: *partition,
			RankPlaces:   *rankPlaces,
			RankQueries:  *rankQueries,
			RankTopK:     *rankTopK,
			Transport:    *transport,
		}, *verify, *coverageCurve)
	}

	base := sim.Config{Runs: *runs, Seed: *seed}

	if *sweep == "users" || *sweep == "both" {
		points, err := sim.SweepUsers(sim.Fig14aUsers(), *budget, base)
		if err != nil {
			return err
		}
		printSweep("Fig. 14(a): average coverage probability vs number of mobile users",
			"users", points)
		if *svgDir != "" {
			if err := writeSVG(*svgDir, "fig14a.svg",
				"Fig 14(a): coverage vs users (budget 17)", "# of mobile users", points); err != nil {
				return err
			}
		}
	}
	if *sweep == "budget" || *sweep == "both" {
		points, err := sim.SweepBudget(sim.Fig14bBudgets(), *users, base)
		if err != nil {
			return err
		}
		printSweep("Fig. 14(b): average coverage probability vs sensing budget",
			"budget", points)
		if *svgDir != "" {
			if err := writeSVG(*svgDir, "fig14b.svg",
				"Fig 14(b): coverage vs budget (40 users)", "budget", points); err != nil {
				return err
			}
		}
	}
	if *sweep == "online" {
		o, err := sim.RunOnline(sim.Config{
			Users: *users, Budget: *budget, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Println("Online (event-driven) vs clairvoyant offline greedy:")
		fmt.Printf("  online  %.3f ± %.3f (avg %.0f re-plans/run)\n", o.OnlineMean, o.OnlineStd, o.Replans)
		fmt.Printf("  offline %.3f ± %.3f\n", o.OfflineMean, o.OfflineStd)
		fmt.Printf("  competitive ratio %.3f\n", o.CompetitiveRatio())
	}
	if *sweep == "chaos" {
		if err := runChaosSweep(*users, *budget, *seed); err != nil {
			return err
		}
	}
	if *sweep != "users" && *sweep != "budget" && *sweep != "both" && *sweep != "online" && *sweep != "chaos" {
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	return nil
}

// runFleet drives the discrete-event fleet simulation: a whole virtual
// day of joins, uploads, retries and faults in one deterministic pass.
// With -verify it runs the identical seed a second time and fails unless
// the end-state digests match byte for byte.
func runFleet(cfg fleetsim.Config, verify, coverage bool) error {
	wall := time.Now()
	res, err := fleetsim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	fmt.Printf("virtual span %s, wall time %s\n",
		res.VirtualEnd.Sub(fleetsim.Epoch), time.Since(wall).Round(time.Millisecond))
	if coverage {
		fmt.Println("\nhourly coverage (acked measurement instants):")
		fmt.Print(res.CoverageTable())
	}
	if len(res.Rank) > 0 {
		fmt.Println("\nrank-latency curve (virtual hour → wall serving latency):")
		fmt.Print(res.RankTable())
	}
	if verify {
		again, err := fleetsim.Run(cfg)
		if err != nil {
			return fmt.Errorf("verification run: %w", err)
		}
		if again.Digest != res.Digest {
			return fmt.Errorf("NON-DETERMINISTIC: same seed, different digests\n%s",
				fleetsim.FirstDiff(res, again))
		}
		fmt.Println("verified: second run of the same seed is byte-identical")
	}
	if res.Abandoned > 0 {
		return fmt.Errorf("%d reports abandoned; replay with -seed %d", res.Abandoned, cfg.Seed)
	}
	return nil
}

// runChaosSweep runs the "http" row of the chaos scenario table twice —
// its clean baseline, then as written: 30 % request loss + 30 % ack loss,
// latency spikes and a partition — and reports whether the faulty fleet
// converged to byte-identical server state.
func runChaosSweep(users, budget int, seed int64) error {
	// The full Fig. 14 population is overkill for an end-to-end HTTP soak;
	// cap the fleet so the sweep stays interactive.
	phones := users
	if phones > 12 {
		phones = 12
	}
	if budget > 6 {
		budget = 6
	}
	faulty := chaos.FleetSoaks["http"]
	faulty.Phones, faulty.Budget, faulty.Seed = phones, budget, seed
	clean, err := chaos.RunFleet(faulty.Clean())
	if err != nil {
		return fmt.Errorf("fault-free soak: %w", err)
	}
	chaotic, err := chaos.RunFleet(faulty)
	if err != nil {
		return fmt.Errorf("chaotic soak: %w", err)
	}
	fmt.Printf("Exactly-once ingest soak (%d phones, budget %d):\n", phones, budget)
	fmt.Printf("  clean   %s\n", clean.Summary())
	fmt.Printf("  chaotic %s\n", chaotic.Summary())
	if diff := chaos.DiffState(clean, chaotic); diff != "" {
		return fmt.Errorf("chaotic run diverged from the fault-free run: %s", diff)
	}
	fmt.Println("  converged: feature matrix, coverage timeline and budget ledger byte-identical")
	return nil
}

func printSweep(title, xName string, points []sim.SeriesPoint) {
	fmt.Println(title)
	fmt.Printf("%8s  %18s  %18s  %12s\n", xName, "greedy (mean±std)", "baseline (mean±std)", "improvement")
	var totalImp float64
	for _, p := range points {
		fmt.Printf("%8d  %9.3f ± %.3f  %9.3f ± %.3f  %+10.0f%%\n",
			p.X, p.GreedyMean, p.GreedyStd, p.BaselineMean, p.BaselineStd,
			p.Improvement()*100)
		totalImp += p.Improvement()
	}
	fmt.Printf("average improvement over the sweep: %+.0f%% (paper reports ~65%%)\n\n",
		totalImp/float64(len(points))*100)
}

func writeSVG(dir, name, title, xlabel string, points []sim.SeriesPoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	chart := viz.LineChart{
		Title:  title,
		XLabel: xlabel,
		YLabel: "average coverage probability",
	}
	greedy := viz.Series{Label: "Greedy (this paper)"}
	baseline := viz.Series{Label: "Baseline"}
	for _, p := range points {
		chart.X = append(chart.X, float64(p.X))
		greedy.Values = append(greedy.Values, p.GreedyMean)
		baseline.Values = append(baseline.Values, p.BaselineMean)
	}
	chart.Series = []viz.Series{greedy, baseline}
	svg, err := chart.SVG(640, 400)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
