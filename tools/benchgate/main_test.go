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

// TestPersistentWallStepFails: a wall-clock step that persists must keep
// failing. Fig 8a went from 195 to 833 ms/op and stayed there; against the
// previous record alone the second slow record would pass and become the
// baseline, but the best of the last same-host records still remembers 195.
func TestPersistentWallStepFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "cpus": 1, "benchmarks": {
			"BenchmarkFig8aJobFrequency": {"cpus": 1, "gomaxprocs": 1, "ns_op": 195266933},
			"BenchmarkFig9Utilization": {"cpus": 1, "gomaxprocs": 1, "ns_op": 105021024}}},
		{"commit": "bbbbbbb", "cpus": 1, "benchmarks": {
			"BenchmarkFig8aJobFrequency": {"cpus": 1, "gomaxprocs": 1, "ns_op": 833406381},
			"BenchmarkFig9Utilization": {"cpus": 1, "gomaxprocs": 1, "ns_op": 105021024}}},
		{"commit": "ccccccc", "cpus": 1, "benchmarks": {
			"BenchmarkFig8aJobFrequency": {"cpus": 1, "gomaxprocs": 1, "ns_op": 821865907},
			"BenchmarkFig9Utilization": {"cpus": 1, "gomaxprocs": 1, "ns_op": 105021024}}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("a 195 -> 833 ms step persisting for two records: got %d violations, want 1:\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "benchmarks.BenchmarkFig8aJobFrequency.ns_op") ||
		!strings.Contains(out.String(), "aaaaaaa") {
		t.Errorf("violation must name the metric and the best record as baseline:\n%s", out.String())
	}
}

// TestWallBaselineWindow: the wall baseline is the best of the last
// wallWindow earlier same-host records, so a step older than that has
// rolled out of the window and the slow level is the baseline again — and
// one record fewer keeps it failing.
func TestWallBaselineWindow(t *testing.T) {
	recs := []string{`{"commit": "fast", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 60e6, "overhead": 0.01}}`}
	for i := 0; i <= wallWindow; i++ {
		recs = append(recs, `{"commit": "slow", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 380e6, "overhead": 0.01}}`)
	}
	for _, tc := range []struct {
		recs []string
		want int
	}{{recs, 0}, {recs[:wallWindow+1], 1}} {
		var out strings.Builder
		bad, err := gate([]byte(`{"records": [`+strings.Join(tc.recs, ",")+`]}`), &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.want {
			t.Fatalf("step %d records back: got %d violations, want %d:\n%s", len(tc.recs)-1, bad, tc.want, out.String())
		}
	}
}

// TestWallOtherHostNotCompared: wall times measured with a different cpus
// (or gomaxprocs) value are not a baseline, in either direction — the
// newest record is compared only against records of its own host shape.
func TestWallOtherHostNotCompared(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		want      int
	}{
		{"other cpus skipped", `{"records": [
			{"commit": "aaaaaaa", "obs_overhead": {"cpus": 1, "gomaxprocs": 1, "off_ns": 58e6, "overhead": 0.01}},
			{"commit": "bbbbbbb", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 380e6, "overhead": 0.01}}
		]}`, 0},
		{"other gomaxprocs skipped", `{"records": [
			{"commit": "aaaaaaa", "obs_overhead": {"cpus": 2, "gomaxprocs": 1, "off_ns": 58e6, "overhead": 0.01}},
			{"commit": "bbbbbbb", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 380e6, "overhead": 0.01}}
		]}`, 0},
		{"same shape behind another compared", `{"records": [
			{"commit": "aaaaaaa", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 58e6, "overhead": 0.01}},
			{"commit": "bbbbbbb", "obs_overhead": {"cpus": 1, "gomaxprocs": 1, "off_ns": 380e6, "overhead": 0.01}},
			{"commit": "ccccccc", "obs_overhead": {"cpus": 2, "gomaxprocs": 2, "off_ns": 380e6, "overhead": 0.01}}
		]}`, 1},
	} {
		var out strings.Builder
		bad, err := gate([]byte(tc.doc), &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.want {
			t.Errorf("%s: got %d violations, want %d:\n%s", tc.name, bad, tc.want, out.String())
		}
	}
}

// TestRecordLevelCpusFallback: early records carry cpus only at the record
// level; a benchmark entry without its own cpus inherits it, and a missing
// gomaxprocs means the Go default (= cpus).
func TestRecordLevelCpusFallback(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "cpus": 1, "benchmarks": {
			"BenchmarkFig8aJobFrequency": {"ns_op": 195e6},
			"BenchmarkFig9Utilization": {"ns_op": 98e6}}},
		{"commit": "bbbbbbb", "cpus": 1, "benchmarks": {
			"BenchmarkFig8aJobFrequency": {"cpus": 1, "gomaxprocs": 1, "ns_op": 195e6},
			"BenchmarkFig9Utilization": {"cpus": 1, "gomaxprocs": 1, "ns_op": 448e6}}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("records with inherited cpus 1 must be compared, got %d violations:\n%s", bad, out.String())
	}
}

// TestAbsoluteBudget: absMax rules bound the newest record regardless of
// history depth.
func TestAbsoluteBudget(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "obs_overhead": {"overhead": 0.07, "off_ns": 58e6}}
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
