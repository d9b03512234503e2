package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// soakSeed returns the seed the soak should run with: SOR_SOAK_SEED when
// set (replaying a printed failure), def otherwise. The fleetsim soak
// honours the same variable, so one knob replays any soak in the repo.
func soakSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if v := os.Getenv("SOR_SOAK_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SOR_SOAK_SEED=%q: %v", v, err)
		}
		if seed == 0 {
			t.Fatal("SOR_SOAK_SEED=0: 0 is not a seed — transport.Retry reads it as \"seed the jitter from the wall clock\", so the run would not replay; use any nonzero value")
		}
		t.Logf("replaying SOR_SOAK_SEED=%d", seed)
		return seed
	}
	return def
}

// repro formats the one-line replay command printed with every soak
// failure, so a red CI run can be reproduced exactly.
func repro(t *testing.T, seed int64) string {
	t.Helper()
	return fmt.Sprintf("replay: SOR_SOAK_SEED=%d go test ./internal/chaos -run %s", seed, t.Name())
}
