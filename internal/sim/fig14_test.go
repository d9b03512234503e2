package sim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig14.golden")

// TestFig14Golden pins both Fig. 14 sweeps at the paper's operating points
// (users 10–55 at budget 17, budgets 15–25 at 40 users; ten runs, seed
// 2013) to the bits of every mean and deviation, so any change to the
// greedy's choices, the workload draw or the accumulation order shows as
// a one-line diff. Regenerate (only for a deliberate change) with
// `go test ./internal/sim -run TestFig14Golden -update`.
func TestFig14Golden(t *testing.T) {
	base := Config{Runs: 10, Seed: 2013}
	users, err := SweepUsers(Fig14aUsers(), 17, base)
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := SweepBudget(Fig14bBudgets(), 40, base)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	write := func(sweep string, points []SeriesPoint) {
		for _, p := range points {
			fmt.Fprintf(&b, "%s %2d", sweep, p.X)
			for _, v := range []float64{p.GreedyMean, p.GreedyStd, p.BaselineMean, p.BaselineStd} {
				fmt.Fprintf(&b, " %016x", math.Float64bits(v))
			}
			fmt.Fprintf(&b, "  # greedy %.4f±%.4f baseline %.4f±%.4f\n", p.GreedyMean, p.GreedyStd, p.BaselineMean, p.BaselineStd)
		}
	}
	write("users", users)
	write("budget", budgets)
	got := b.String()
	const golden = "testdata/fig14.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/sim -run TestFig14Golden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Fig. 14 sweeps differ from %s:\ngot:\n%s", golden, got)
	}
}
