package chaos

import (
	"testing"
)

// crashSoak is the "crash" row — the lossy, partitioning network in front
// of a durable server — sized for the crash tests, with kills injected by
// the caller.
func crashSoak(t *testing.T, seed int64, kills int) Fleet {
	t.Helper()
	sc := FleetSoaks["crash"]
	sc.Phones, sc.Budget, sc.Seed = 4, 4, seed
	sc.DataDir = t.TempDir()
	sc.ServerKills = kills
	return sc
}

// TestCrashSoakRecoversIdenticalState is the tentpole proof: a durable
// server killed at random points mid-run — under the lossy fault schedule —
// recovers to converged state bit-identical to the same seed never
// crashing. Feature matrix, coverage timeline, budget ledger, dedup
// window, and stored-upload count must all match; no acked report may be
// lost or double-charged no matter where the kills landed.
func TestCrashSoakRecoversIdenticalState(t *testing.T) {
	kills := FleetSoaks["crash"].ServerKills
	seeds := []int64{1, 42}
	if testing.Short() {
		kills = 3
		seeds = seeds[:1]
	}
	if replay := soakSeed(t, 0); replay != 0 {
		// SOR_SOAK_SEED narrows the sweep to the seed being replayed.
		seeds = []int64{replay}
	}
	for _, seed := range seeds {
		baseline, err := RunFleet(crashSoak(t, seed, 0))
		if err != nil {
			t.Fatalf("seed %d baseline: %v\n%s", seed, err, repro(t, seed))
		}
		if baseline.Pending != 0 {
			t.Fatalf("seed %d baseline left %d reports pending\n%s",
				seed, baseline.Pending, repro(t, seed))
		}

		crashed, err := RunFleet(crashSoak(t, seed, kills))
		if err != nil {
			t.Fatalf("seed %d crashed run: %v\n%s", seed, err, repro(t, seed))
		}
		if crashed.Pending != 0 {
			t.Fatalf("seed %d: %d reports still pending after recovery\n%s",
				seed, crashed.Pending, repro(t, seed))
		}
		if diff := DiffState(baseline, crashed); diff != "" {
			t.Fatalf("seed %d: state diverged after %d kills: %s\nbaseline: %s\ncrashed:  %s\n%s",
				seed, kills, diff, baseline.Summary(), crashed.Summary(), repro(t, seed))
		}
		if crashed.Stored != baseline.Stored {
			t.Fatalf("seed %d: stored %d reports, baseline %d\n%s",
				seed, crashed.Stored, baseline.Stored, repro(t, seed))
		}
		t.Logf("seed %d survived %d kills: %s", seed, kills, crashed.Summary())
	}
}

// TestCrashSoakDurableMatchesMemory pins that moving the soak onto the
// durable backend (zero kills) does not change the converged state the
// in-memory soak produces for the same seed and fault schedule.
func TestCrashSoakDurableMatchesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the full crash soak")
	}
	cfg := crashSoak(t, 7, 0)
	durable, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Durable = false
	memory, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The one sanctioned difference: in-memory stores discard drained
	// uploads, durable stores archive them for refold-on-recovery.
	if memory.UploadsStored != 0 {
		t.Fatalf("in-memory store retained %d uploads after drain", memory.UploadsStored)
	}
	memory.UploadsStored = durable.UploadsStored
	if diff := DiffState(memory, durable); diff != "" {
		t.Fatalf("durable backend changed soak semantics: %s", diff)
	}
}
