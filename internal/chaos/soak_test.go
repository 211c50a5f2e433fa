package chaos

import (
	"testing"
	"time"
)

// requireClean runs one soak and fails with the seed printed so a breakage
// reproduces from the log line alone.
func requireClean(t *testing.T, cfg SoakConfig) SoakResult {
	t.Helper()
	res, err := Soak(cfg)
	if err != nil {
		t.Fatalf("seed %d: soak: %v", cfg.Seed, err)
	}
	for _, v := range res.Violations {
		t.Errorf("seed %d: invariant violated: %v", cfg.Seed, v)
	}
	if t.Failed() {
		t.Fatalf("seed %d: faults %v, outcomes ok=%d failed=%d rejected=%d restarts=%d requeues=%d recoveries=%d/%d resumes=%d relists=%d elapsed=%v",
			cfg.Seed, res.Faults, res.Succeeded, res.Failed, res.Rejected,
			res.Restarts, res.Requeues, res.Recoveries, res.RecoveryFails,
			res.Resumes, res.Relists, res.Elapsed)
	}
	return res
}

// TestSoakSmoke is the tier-1 entry: one short seed, every fault class
// enabled, all invariants checked. Fast enough for every check.sh run.
func TestSoakSmoke(t *testing.T) {
	res := requireClean(t, SoakConfig{
		Seed:         1,
		Jobs:         10,
		JobDuration:  10 * time.Second,
		SubmitWindow: 15 * time.Second,
	})
	if res.Faults.Total() == 0 {
		t.Fatal("smoke soak injected no faults — schedule means too long for the horizon")
	}
}

// TestSoakSeeds is the full multi-seed soak: each seed runs the default
// workload under all fault classes and must satisfy every recovery
// invariant. The faults delivered must include each class at least once
// across the seeds, and recovery paths must actually fire — otherwise the
// soak silently stopped testing anything.
func TestSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short")
	}
	var total Stats
	var restarts int
	var requeues, recoveries int64
	var resumes, relists int
	var admitRetries int64
	for _, seed := range []int64{1, 2, 3, 4} {
		res := requireClean(t, SoakConfig{Seed: seed})
		total.NodeCrashes += res.Faults.NodeCrashes
		total.HolderKills += res.Faults.HolderKills
		total.DeviceFaults += res.Faults.DeviceFaults
		total.WatchDrops += res.Faults.WatchDrops
		total.APIRestarts += res.Faults.APIRestarts
		total.TornTails += res.Faults.TornTails
		total.Replayed += res.Faults.Replayed
		restarts += res.Restarts
		requeues += res.Requeues
		recoveries += res.Recoveries
		resumes += res.Resumes
		relists += res.Relists
		admitRetries += res.AdmitRetries
	}
	if total.NodeCrashes == 0 || total.HolderKills == 0 || total.DeviceFaults == 0 ||
		total.WatchDrops == 0 || total.APIRestarts == 0 {
		t.Fatalf("some fault class never fired across seeds: %v", total)
	}
	if total.TornTails == 0 {
		t.Fatalf("no restart ever hit a torn WAL tail — the truncate-and-recover path went untested: %v", total)
	}
	if total.Replayed == 0 {
		t.Fatal("every restart recovered from a fresh checkpoint — WAL replay went untested")
	}
	if relists == 0 {
		t.Fatal("no reflector ever relisted — restart epochs went unnoticed by consumers")
	}
	if requeues == 0 {
		t.Fatal("no sharePod was ever requeued — the recovery path went untested")
	}
	if recoveries == 0 {
		t.Fatal("no vGPU recovery ever ran — holder kills went unnoticed")
	}
	if resumes == 0 {
		t.Fatal("no reflector ever resumed — watch drops went unnoticed")
	}
	if admitRetries == 0 {
		t.Fatal("no device-library admission ever retried a down strategy — the reconnect backoff went untested")
	}
	_ = restarts
	_ = relists
}

// TestSoakDeterministic pins the chaos layer's reproducibility: the same
// seed must deliver the same faults and the same outcomes, field for field.
// It runs at default scale so the schedule includes apiserver restarts —
// checkpoint+WAL recovery (replayed counts, modeled outage) must reproduce
// exactly, not just the fault-free path.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Seed: 7}
	a := requireClean(t, cfg)
	b := requireClean(t, cfg)
	if a.Faults != b.Faults {
		t.Fatalf("fault schedule diverged: %v vs %v", a.Faults, b.Faults)
	}
	if a.Faults.APIRestarts == 0 {
		t.Fatalf("no apiserver restart fired — determinism of the recovery path went untested: %v", a.Faults)
	}
	if a.Succeeded != b.Succeeded || a.Failed != b.Failed || a.Rejected != b.Rejected ||
		a.Restarts != b.Restarts || a.Requeues != b.Requeues ||
		a.Recoveries != b.Recoveries || a.RecoveryFails != b.RecoveryFails ||
		a.Elapsed != b.Elapsed {
		t.Fatalf("outcomes diverged:\n  %+v\n  %+v", a, b)
	}
}
