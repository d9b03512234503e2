package feature

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sor/internal/stats"
)

// Robust extractors: crowdsensed data comes from uncalibrated consumer
// hardware, so a single faulty phone can poison a plain average. The paper
// already hedges by taking "multiple (instead of one) readings within
// [t, t+Δt] to ensure high sensing quality"; MADMeanExtractor extends that
// idea across contributors by rejecting outliers before it averages.

// MADFilter removes readings farther than K median-absolute-deviations
// from the median (K ≈ 3 is customary). It returns the surviving readings
// and how many were rejected.
func MADFilter(readings []float64, k float64) (kept []float64, rejected int, err error) {
	if len(readings) == 0 {
		return nil, 0, errors.New("feature: MAD filter on empty input")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("feature: MAD threshold %v must be positive", k)
	}
	med, err := stats.Quantile(readings, 0.5)
	if err != nil {
		return nil, 0, err
	}
	dev := make([]float64, len(readings))
	for i, r := range readings {
		dev[i] = math.Abs(r - med)
	}
	mad, err := stats.Quantile(dev, 0.5)
	if err != nil {
		return nil, 0, err
	}
	if mad == 0 {
		// Degenerate spread: keep exact-median readings only when there
		// are outliers; otherwise keep all.
		for _, r := range readings {
			if r == med {
				kept = append(kept, r)
			} else {
				rejected++
			}
		}
		if rejected == 0 {
			return readings, 0, nil
		}
		return kept, rejected, nil
	}
	limit := k * 1.4826 * mad // 1.4826 scales MAD to σ for Gaussians
	for _, r := range readings {
		if math.Abs(r-med) <= limit {
			kept = append(kept, r)
		} else {
			rejected++
		}
	}
	if len(kept) == 0 {
		return nil, rejected, errors.New("feature: MAD filter rejected everything")
	}
	return kept, rejected, nil
}

// MADMeanExtractor averages readings after MAD outlier rejection. Its Acc
// keeps every reading, since the median and MAD need the whole multiset,
// and the kept readings are summed exactly.
type MADMeanExtractor struct {
	Feature string
	K       float64 // MAD multiples; <= 0 defaults to 3
}

var _ Fold = MADMeanExtractor{}

// Name implements Extractor.
func (e MADMeanExtractor) Name() string { return e.Feature }

// Extract implements Extractor.
func (e MADMeanExtractor) Extract(samples []Sample) (float64, error) {
	return foldExtract(e, samples)
}

// Step implements Fold: every reading is kept.
func (MADMeanExtractor) Step(a *Acc, window time.Duration, readings []float64) error {
	if err := Validate(window, readings); err != nil {
		return err
	}
	a.kept = append(a.kept, readings...)
	a.samples++
	return nil
}

// Read implements Fold.
func (e MADMeanExtractor) Read(a *Acc) (float64, error) {
	if len(a.kept) == 0 {
		return 0, fmt.Errorf("feature: %s: no data", e.Feature)
	}
	k := e.K
	if k <= 0 {
		k = 3
	}
	kept, _, err := MADFilter(a.kept, k)
	if err != nil {
		return 0, err
	}
	var m Acc
	_ = m.observe(kept, false) // kept readings passed Validate: all admitted
	return m.mean(e.Feature)
}
