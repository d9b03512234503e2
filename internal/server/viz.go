package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sor/internal/viz"
)

// Charts implements the paper's Visualization module (§II-B: "a simple
// Visualization module, which can generate figures for feature data in the
// database such that users can view them easily"): one bar chart per
// feature of a category, places on the x-axis — the shape of the paper's
// Fig. 6 and Fig. 10.
func (s *Server) Charts(category string) ([]viz.BarChart, error) {
	rows := s.db.FeaturesByCategory(category)
	if len(rows) == 0 {
		return nil, fmt.Errorf("server: no feature data for category %q", category)
	}
	byFeature := make(map[string]map[string]float64)
	units := make(map[string]string)
	for _, f := range s.catalog[category] {
		units[f.Name] = f.Unit
	}
	for _, row := range rows {
		m, ok := byFeature[row.Feature]
		if !ok {
			m = make(map[string]float64)
			byFeature[row.Feature] = m
		}
		m[row.Place] = row.Value
	}
	featureNames := make([]string, 0, len(byFeature))
	for name := range byFeature {
		featureNames = append(featureNames, name)
	}
	sort.Strings(featureNames)
	charts := make([]viz.BarChart, 0, len(featureNames))
	for _, name := range featureNames {
		values := byFeature[name]
		places := make([]string, 0, len(values))
		for place := range values {
			places = append(places, place)
		}
		sort.Strings(places)
		chart := viz.BarChart{Title: name, Unit: units[name], Categories: places}
		for _, place := range places {
			chart.Values = append(chart.Values, values[place])
		}
		charts = append(charts, chart)
	}
	return charts, nil
}

// StartProcessing runs the Data Processor's periodic poll ("periodically
// checks if there are any binary sensed data in the database") until ctx
// is cancelled, then drains once more. It returns a done channel that
// closes when the loop exits; a caller closing the storage waits for it,
// so the final drain lands before the WAL closes. A killed server's loop
// exits at its next wake-up without processing: a crash runs no code.
func (s *Server) StartProcessing(ctx context.Context, interval time.Duration) (<-chan struct{}, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("server: processing interval must be positive")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				// Final drain: the poll context is gone, but drained blobs
				// must still be folded (exactly-once), so run uncancelled.
				if !s.killed.Load() {
					s.processor.Process()
				}
				return
			case <-ticker.C:
				if s.killed.Load() {
					return
				}
				s.processor.ProcessContext(ctx)
			}
		}
	}()
	return done, nil
}
