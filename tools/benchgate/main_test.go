package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestInjectedRegressionFails: a >=10% drop in a watched higher-is-better
// metric must trip the gate.
func TestInjectedRegressionFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig15_scheduler_throughput": {"batched_speedup": 63.66}},
		{"commit": "bbbbbbb", "fig15_scheduler_throughput": {"batched_speedup": 56.0}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for a 12%% drop, got %d:\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "fig15_scheduler_throughput.batched_speedup") {
		t.Errorf("violation message missing the metric path:\n%s", out.String())
	}
}

// TestLowerIsBetterRegressionFails: a watched lower-is-better metric that
// rises past tolerance must trip the gate, and one within tolerance must
// not.
func TestLowerIsBetterRegressionFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 200}},
		{"commit": "bbbbbbb", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 230}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for a 15%% outage rise, got %d:\n%s", bad, out.String())
	}
	out.Reset()
	bad, err = gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 200}},
		{"commit": "bbbbbbb", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 210}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("a 5%% rise is within the 10%% tolerance, got %d violations:\n%s", bad, out.String())
	}
}

// TestScaleSweepWallRegressionFails: the fig16 10k-sharePod wall time is
// lower-is-better with a 25% tolerance; a 30% slowdown must trip the gate
// and a 20% one must not.
func TestScaleSweepWallRegressionFails(t *testing.T) {
	for _, tc := range []struct {
		newWall float64
		want    int
	}{{6500, 1}, {6000, 0}} {
		var out strings.Builder
		bad, err := gate([]byte(fmt.Sprintf(`{"records": [
			{"commit": "aaaaaaa", "fig16_scale": {"sharepods_10000": {"wall_ms": 5000}}},
			{"commit": "bbbbbbb", "fig16_scale": {"sharepods_10000": {"wall_ms": %g}}}
		]}`, tc.newWall)), &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.want {
			t.Fatalf("wall 5000 -> %g ms: got %d violations, want %d:\n%s", tc.newWall, bad, tc.want, out.String())
		}
		if tc.want > 0 && !strings.Contains(out.String(), "fig16_scale.sharepods_10000.wall_ms") {
			t.Errorf("violation message missing the metric path:\n%s", out.String())
		}
	}
}

// TestAbsoluteBudget: absMax rules bound the newest record regardless of
// history depth.
func TestAbsoluteBudget(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "obs_overhead": {"overhead": 0.07}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for 7%% obs overhead against the 5%% budget, got %d", bad)
	}
}

// TestSingleRecordSkipped: a section seen once has no baseline — skipped,
// not failed.
func TestSingleRecordSkipped(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig15_scheduler_throughput": {"batched_speedup": 63.66}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("single-record section must be skipped, got %d violations:\n%s", bad, out.String())
	}
}

// TestCommittedHistoryPasses: the repository's own BENCH.json must clear
// the gate — the tolerances are calibrated against the real history.
func TestCommittedHistoryPasses(t *testing.T) {
	doc, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Skipf("no BENCH.json: %v", err)
	}
	var out strings.Builder
	bad, err := gate(doc, &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("committed BENCH.json fails the gate:\n%s", out.String())
	}
}
