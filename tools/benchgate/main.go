// Command benchgate is the perf-regression gate over BENCH.json: for each
// watched metric it compares the newest record carrying that section
// against earlier ones and fails (exit 1) when the value moved past the
// rule's declared tolerance in the bad direction.
//
// Records accumulate oldest-first (bench.sh appends via tools/benchmerge).
// Sections introduced later simply have a shorter history, and a section
// with no earlier comparable record is skipped, not failed. There are two
// kinds of baseline:
//
//   - Virtual-clock quantities compare against the previous record. They
//     are deterministic modulo intended behavior changes, so tolerances are
//     tight, and an intended change is acknowledged by the new record
//     itself: the next run re-baselines.
//   - Wall-clock quantities compare against the best of up to the last
//     wallWindow earlier records measured with the same cpus/gomaxprocs.
//     Comparing against the previous record alone would let a slowdown
//     that persists for one more record become the new baseline; the best
//     of a window keeps failing until the window has rolled past it. Other
//     host shapes are not compared at all: their wall times say nothing
//     about this one's. Tolerances are loose (bench.sh documents ±30%
//     micro-benchmark noise).
//
// Usage:
//
//	go run ./tools/benchgate            # gate BENCH.json in the CWD
//	go run ./tools/benchgate -f FILE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// rule watches one dotted path inside a record section.
type rule struct {
	// path is the dotted location of the value, rooted at the record
	// ("fig15_scheduler_throughput.batched_speedup"). The first segment
	// is the section whose presence selects comparable records.
	path string
	// higherBetter orients the comparison; ignored for absMax rules.
	higherBetter bool
	// wall marks a wall-clock metric: the baseline is the best of the last
	// wallWindow earlier records on the same host shape, not the previous
	// record.
	wall bool
	// relTol is the allowed fractional regression vs the baseline record
	// (0.10 = fail past 10% worse). Zero disables the relative check.
	relTol float64
	// absMax, when non-nil, bounds the newest value absolutely — used for
	// budget metrics like the obs overhead, where "worse than last time
	// but still within budget" is fine.
	absMax *float64
}

func f(v float64) *float64 { return &v }

// wallWindow is how many earlier same-host records a wall rule's baseline
// is the best of.
const wallWindow = 5

// rules is the watched-metric table. Virtual-clock ratios get tight
// tolerances; wall-clock-derived ones get loose tolerances.
var rules = []rule{
	// Batched-cycle speedup is a virtual-clock ratio; history is constant.
	{path: "fig15_scheduler_throughput.batched_speedup", higherBetter: true, relTol: 0.10},
	// Wall time of the paper workloads (Fig 8a, Fig 9), of the Fig 9 obs
	// arm with telemetry off, and of the scale sweep: machine-sensitive,
	// hence same-host baselines and a loose tolerance. The obs overhead
	// ratio below cannot stand in for these: it stays within budget while
	// both of its arms get several times slower.
	{path: "benchmarks.BenchmarkFig8aJobFrequency.ns_op", wall: true, relTol: 0.25},
	{path: "benchmarks.BenchmarkFig9Utilization.ns_op", wall: true, relTol: 0.25},
	{path: "obs_overhead.off_ns", wall: true, relTol: 0.25},
	{path: "fig16_scale.sharepods_10000.wall_ms", wall: true, relTol: 0.25},
	// Modeled outage is virtual-clock.
	{path: "fig17_recovery_sweep.worst_nockpt_outage_ms", higherBetter: false, relTol: 0.10},
	// Strategy throughputs are virtual-clock from identical seeds.
	{path: "fig18_strategy_comparison.small_kernel.token_tput", higherBetter: true, relTol: 0.10},
	{path: "fig18_strategy_comparison.small_kernel.mps_tput", higherBetter: true, relTol: 0.10},
	{path: "fig18_strategy_comparison.mps_over_token_small", higherBetter: true, relTol: 0.10},
	// Attribution budget: end-to-end latency per strategy is virtual-clock
	// and the whole point of the fig19 experiment — a regression here is a
	// real latency regression, not noise.
	{path: "fig19_attribution.small_kernel.token_e2e_ms", higherBetter: false, relTol: 0.10},
	{path: "fig19_attribution.small_kernel.mps_e2e_ms", higherBetter: false, relTol: 0.10},
	{path: "fig19_attribution.large_kernel.token_e2e_ms", higherBetter: false, relTol: 0.10},
	// Open chains on the fig19 workloads mean sharePods that never
	// launched — zero by construction, any value is a bug.
	{path: "fig19_attribution.open_chains", absMax: f(0)},
	// Observability overhead carries an absolute budget (<= 5%), not a
	// relative one: run-to-run wall noise exceeds any sane relative tol.
	{path: "obs_overhead.overhead", absMax: f(0.05)},
}

// lookup resolves a dotted path inside a decoded record.
func lookup(rec map[string]any, path string) (float64, bool) {
	cur := any(rec)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[seg]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// host returns the cpus/gomaxprocs a value at path was measured under: the
// pair recorded by the innermost enclosing object that has cpus, up to the
// record itself. A missing gomaxprocs means the Go default, which is cpus.
func host(rec map[string]any, path string) [2]float64 {
	segs := strings.Split(path, ".")
	objs := []map[string]any{rec}
	for _, seg := range segs[:len(segs)-1] {
		m, ok := objs[len(objs)-1][seg].(map[string]any)
		if !ok {
			break
		}
		objs = append(objs, m)
	}
	for i := len(objs) - 1; i >= 0; i-- {
		if cpus, ok := objs[i]["cpus"].(float64); ok {
			gmp, ok := objs[i]["gomaxprocs"].(float64)
			if !ok {
				gmp = cpus
			}
			return [2]float64{cpus, gmp}
		}
	}
	return [2]float64{}
}

// baseline picks the record and value the newest one (have's last) is
// judged against: the previous record for virtual-clock rules, the best of
// up to wallWindow earlier same-host records for wall rules.
func baseline(r rule, have []map[string]any) (map[string]any, float64, bool) {
	earlier := have[:len(have)-1]
	if !r.wall {
		if len(earlier) == 0 {
			return nil, 0, false
		}
		prev := earlier[len(earlier)-1]
		pv, ok := lookup(prev, r.path)
		return prev, pv, ok
	}
	shape := host(have[len(have)-1], r.path)
	var best map[string]any
	var bv float64
	seen := 0
	for i := len(earlier) - 1; i >= 0 && seen < wallWindow; i-- {
		if host(earlier[i], r.path) != shape {
			continue
		}
		v, ok := lookup(earlier[i], r.path)
		if !ok {
			continue
		}
		seen++
		if best == nil || (r.higherBetter && v > bv) || (!r.higherBetter && v < bv) {
			best, bv = earlier[i], v
		}
	}
	return best, bv, best != nil
}

// commit names a record for messages.
func commit(rec map[string]any) string {
	if c, ok := rec["commit"].(string); ok {
		return c
	}
	return "?"
}

// gate runs every rule against the decoded BENCH.json document and
// returns the number of violations, reporting each to w.
func gate(doc []byte, w io.Writer) (int, error) {
	var bench struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(doc, &bench); err != nil {
		return 0, fmt.Errorf("benchgate: %w", err)
	}
	bad := 0
	for _, r := range rules {
		section := strings.SplitN(r.path, ".", 2)[0]
		// Every record carrying this section, newest last.
		var have []map[string]any
		for _, rec := range bench.Records {
			if _, ok := rec[section]; ok {
				have = append(have, rec)
			}
		}
		if len(have) == 0 {
			continue
		}
		newest := have[len(have)-1]
		nv, ok := lookup(newest, r.path)
		if !ok {
			fmt.Fprintf(w, "benchgate: %s: section present in %s but path missing\n", r.path, commit(newest))
			bad++
			continue
		}
		if r.absMax != nil {
			if nv > *r.absMax {
				fmt.Fprintf(w, "benchgate: %s = %g in %s exceeds the absolute budget %g\n",
					r.path, nv, commit(newest), *r.absMax)
				bad++
			}
			continue
		}
		prev, pv, ok := baseline(r, have)
		if !ok || pv == 0 {
			continue // no comparable earlier record: nothing to compare
		}
		change := nv/pv - 1
		if !r.higherBetter {
			change = -change
		}
		if change < -r.relTol {
			dir := "dropped"
			if !r.higherBetter {
				dir = "rose"
			}
			fmt.Fprintf(w, "benchgate: %s %s %.1f%% (%g in %s -> %g in %s), tolerance %.0f%%\n",
				r.path, dir, -change*100, pv, commit(prev), nv, commit(newest), r.relTol*100)
			bad++
		}
	}
	return bad, nil
}

func main() {
	file := flag.String("f", "BENCH.json", "benchmark history to gate")
	flag.Parse()
	doc, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	bad, err := gate(doc, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) beyond tolerance\n", bad)
		os.Exit(1)
	}
	fmt.Println("benchgate: no regressions beyond tolerance")
}
