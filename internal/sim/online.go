package sim

import (
	"fmt"
	"sort"
	"time"

	"sor/internal/coverage"
	"sor/internal/schedule"
	"sor/internal/stats"
)

// OnlineOutcome extends Outcome with the event-driven scheduler's result:
// the paper's deployment is inherently online (users appear when they scan
// the barcode), so this experiment quantifies what the online re-planning
// loses against the clairvoyant offline greedy that sees all arrivals in
// advance. Both are measured against the same §V-C workload.
type OnlineOutcome struct {
	// OnlineMean is the event-driven scheduler's average coverage: users
	// join at their arrival times, execute scheduled measurements as
	// simulated time advances, and each join re-plans the future.
	OnlineMean, OnlineStd float64
	// OfflineMean is the clairvoyant greedy on the full instance.
	OfflineMean, OfflineStd float64
	// Replans is the mean number of re-plans per run.
	Replans float64
}

// CompetitiveRatio is online/offline mean coverage.
func (o OnlineOutcome) CompetitiveRatio() float64 {
	if o.OfflineMean == 0 {
		return 0
	}
	return o.OnlineMean / o.OfflineMean
}

// RunOnline simulates the event-driven scheduler against the offline
// greedy on identical workloads.
func RunOnline(cfg Config) (OnlineOutcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return OnlineOutcome{}, err
	}
	start := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	n := int(cfg.Period / cfg.Step)
	kernel := coverage.GaussianKernel{Sigma: cfg.Sigma}
	rng := stats.NewRand(cfg.Seed)

	var online, offline, replans stats.Welford
	for run := 0; run < cfg.Runs; run++ {
		runRng := stats.Split(rng)
		parts := drawParticipants(runRng, cfg, start)

		tl, err := coverage.NewTimeline(start, cfg.Step, n)
		if err != nil {
			return OnlineOutcome{}, err
		}
		sched, err := schedule.NewScheduler(tl, kernel)
		if err != nil {
			return OnlineOutcome{}, err
		}

		// Offline: sees everything.
		off, err := sched.Greedy(parts, nil)
		if err != nil {
			return OnlineOutcome{}, err
		}
		offline.Add(off.AverageCoverage)

		// Online: replay arrivals chronologically. Between consecutive
		// joins, every already-present user executes the measurements the
		// current plan put before the next event.
		onCov, nReplans, err := replayOnline(tl, kernel, sched, parts)
		if err != nil {
			return OnlineOutcome{}, fmt.Errorf("sim: online run %d: %w", run, err)
		}
		online.Add(onCov)
		replans.Add(float64(nReplans))
	}
	return OnlineOutcome{
		OnlineMean: online.Mean(), OnlineStd: online.StdDev(),
		OfflineMean: offline.Mean(), OfflineStd: offline.StdDev(),
		Replans: replans.Mean(),
	}, nil
}

// replayOnline drives schedule.Online through the arrival sequence and
// returns the realized average coverage.
func replayOnline(tl *coverage.Timeline, kernel coverage.Kernel, sched *schedule.Scheduler, parts []schedule.Participant) (float64, int, error) {
	on, err := schedule.NewOnline(sched)
	if err != nil {
		return 0, 0, err
	}
	ordered := make([]schedule.Participant, len(parts))
	copy(ordered, parts)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Arrive.Before(ordered[j].Arrive) })

	// executeUntil runs all currently-planned measurements strictly
	// before the horizon.
	executeUntil := func(horizon time.Time) error {
		plan := on.Plan()
		if plan == nil {
			return nil
		}
		for user, a := range plan.Assignments {
			for _, instant := range a.Instants {
				if tl.Time(instant).Before(horizon) {
					if err := on.RecordExecution(user, instant); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	for _, p := range ordered {
		if err := executeUntil(p.Arrive); err != nil {
			return 0, 0, err
		}
		if _, err := on.Join(p.Arrive, p); err != nil {
			return 0, 0, err
		}
	}
	// Execute the tail of the period.
	if err := executeUntil(tl.End().Add(tl.Step())); err != nil {
		return 0, 0, err
	}

	// Realized coverage = coverage of everything actually executed.
	acc, err := coverage.NewAccumulator(tl, kernel)
	if err != nil {
		return 0, 0, err
	}
	for _, instant := range on.ExecutedInstants() {
		acc.Add(instant)
	}
	return acc.Average(), on.Replans(), nil
}
