package main

import (
	"fmt"
	"sort"
	"strings"
)

// layerRecord is one traced repetition's raw per-layer data.
type layerRecord struct {
	CPUNS      map[string]int64 `json:"cpu_ns"`
	AllocBytes map[string]int64 `json:"alloc_bytes"` // region only
	Samples    int64            `json:"samples"`
	// Calls holds the host seconds of the benchmark's own public calls,
	// by span name.
	Calls map[string][]float64 `json:"calls"`
	// Counts are the program's work counts and the virtual latencies the
	// benchmark image timed; they repeat exactly for a seed.
	Counts  []metric `json:"counts"`
	Missing []string `json:"missing,omitempty"`
}

// publicCalls are the spans whose host durations the per-layer metrics
// report.
var publicCalls = []string{"Create", "MutateStatus", "Scan", "Restart"}

func newLayerRecord(o outcome, tr *tracer, prof *profiler) (*layerRecord, error) {
	if prof.samples != prof.layerSamples {
		return nil, fmt.Errorf("per-layer CPU samples sum to %d, profile total %d", prof.layerSamples, prof.samples)
	}
	lr := &layerRecord{CPUNS: prof.cpuNS, AllocBytes: prof.alloc, Samples: prof.samples, Calls: map[string][]float64{}}
	for _, name := range publicCalls {
		lr.Calls[name] = tr.durations(name)
	}
	// counter reads a family from the registry snapshot; a family the
	// program never registered is reported as missing, not as a failure.
	counter := func(family string) float64 {
		for _, c := range o.snap.Counters {
			if c.Name == family {
				return float64(o.snap.Counter(family))
			}
		}
		lr.Missing = append(lr.Missing, family)
		return 0
	}
	add := func(name string, value float64, unit, note string) {
		lr.Counts = append(lr.Counts, metric{Name: name, Value: value, Unit: unit, Note: note})
	}
	wait50 := Percentile(o.wait, 0.5)
	wait99, _ := Tail(o.wait, 0.99)
	decisions := counter("kubeshare_sched_decisions_total")
	add("devlib.launches", float64(o.launches), "count", "benchmark image")
	add("devlib.token_grants", counter("kubeshare_devlib_token_grants_total"), "count", "")
	add("devlib.wait_ms_p50", wait50.Value, "ms", fmt.Sprintf("virtual, n=%d", wait50.N))
	add("devlib.wait_ms_p99", wait99.Value, "ms", "virtual, "+quantileNote(wait99))
	add("gpusim.kernel_launches", counter("kubeshare_gpu_kernel_launches_total"), "count", "")
	add("schedfw.decisions", decisions, "count", "")
	add("schedfw.conflicts", counter("kubeshare_sched_batch_conflicts_total"), "count", "")
	add("schedfw.placements_per_decision", ratio(float64(o.placed), decisions), "ratio",
		fmt.Sprintf("%d placed", o.placed))
	add("apiserver.restarts", float64(o.restarts), "count", "")
	add("apiserver.relists", counter("kubeshare_reflector_relist_total"), "count", "")
	add("apiserver.write_requests", counter("kubeshare_apiserver_write_requests_total"), "count", "")
	add("store.wal_records", counter("kubeshare_store_wal_records_total"), "count", "")
	add("store.replayed_records", float64(o.replayed), "count", "")
	add("devmgr.binds", counter("kubeshare_devmgr_binds_total"), "count", "")
	add("devmgr.vgpu_creates", counter("kubeshare_devmgr_vgpu_creates_total"), "count", "")
	add("kubelet.pod_syncs", counter("kubeshare_kubelet_pod_syncs_total"), "count", "")
	add("obs.spans", float64(o.spans), "count", "")
	return lr, nil
}

// perLayer turns the traced repetitions into the per-layer metrics, each
// per repetition: host CPU and allocations per layer from the profiles
// (means), work counts from the program's registry, and host latencies of
// the benchmark's own public calls pooled over the traced repetitions.
func perLayer(plain, traced []record) (result, error) {
	res := newResult(append(append([]record(nil), plain...), traced...))
	n := float64(len(traced))
	cpuNS, alloc := map[string]int64{}, map[string]int64{}
	calls := map[string][]float64{}
	for _, r := range traced {
		if r.Layer == nil {
			return res, fmt.Errorf("traced repetition without layer data")
		}
		for l, v := range r.Layer.CPUNS {
			cpuNS[l] += v
		}
		for l, v := range r.Layer.AllocBytes {
			alloc[l] += v
		}
		for name, d := range r.Layer.Calls {
			calls[name] = append(calls[name], d...)
		}
	}
	last := traced[len(traced)-1].Layer
	counts := map[string]float64{}
	for _, m := range last.Counts {
		counts[m.Name] = m.Value
	}
	cpuS := func(layer string) float64 { return float64(cpuNS[layer]) / 1e9 / n }
	allocMB := func(layer string) float64 { return float64(alloc[layer]) / (1 << 20) / n }
	add := func(name string, value float64, unit, note string) {
		res.metrics = append(res.metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
	}
	res.metrics = append(res.metrics, last.Counts...)
	for _, l := range []string{"devlib", "sim", "schedfw", "apiserver", "store", "obs"} {
		add(l+".alloc_mb", allocMB(l), "MB", "")
	}
	for _, l := range []string{"devlib", "gpusim", "sim", "schedfw", "apiserver", "store", "core", "kubelet", "obs"} {
		add(l+".cpu_s", cpuS(l), "s", "")
	}
	add("bench.cpu_s", cpuS("bench"), "s", "the benchmark's own frames")
	add("go.cpu_s", cpuS(goLayer), "s", "samples with no layer frame: GC workers, runtime")
	add("devlib.cpu_us_per_launch", ratio(cpuS("devlib")*1e6, counts["devlib.launches"]), "us", "")
	add("devlib.alloc_kb_per_launch", ratio(allocMB("devlib")*1024, counts["devlib.launches"]), "KB", "")
	add("schedfw.cpu_us_per_decision", ratio(cpuS("schedfw")*1e6, counts["schedfw.decisions"]), "us", "")

	scaled := func(name string, scale float64) []float64 {
		d := make([]float64, len(calls[name]))
		for i, v := range calls[name] {
			d[i] = v * scale
		}
		return sorted(d)
	}
	for _, c := range []struct{ span, name string }{
		{"Create", "apiserver.create_us"}, {"MutateStatus", "apiserver.mutate_status_us"},
	} {
		d := scaled(c.span, 1e6)
		p50 := Percentile(d, 0.5)
		p99, _ := Tail(d, 0.99)
		add(c.name+"_p50", p50.Value, "us", fmt.Sprintf("host, n=%d", p50.N))
		add(c.name+"_p99", p99.Value, "us", "host, "+quantileNote(p99))
	}
	scan := Percentile(scaled("Scan", 1e3), 0.5)
	add("apiserver.scan_ms_p50", scan.Value, "ms", fmt.Sprintf("host, n=%d", scan.N))
	restarts := scaled("Restart", 1e3)
	var sum float64
	for _, d := range restarts {
		sum += d
	}
	add("apiserver.restart_ms", ratio(sum, float64(len(restarts))), "ms", fmt.Sprintf("host, mean of %d", len(restarts)))

	var gcCPU, gcCycles float64
	for _, r := range traced {
		gcCPU += r.Host.GCCPU / n
		gcCycles += r.Host.GCCycles / n
	}
	add("go.gc_cpu_s", gcCPU, "s", "runtime estimate")
	add("go.gc_cycles", gcCycles, "count", "")
	walls := func(reps []record) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = r.Host.Wall
		}
		return out
	}
	add("bench.trace_overhead", median(walls(traced))/median(walls(plain))-1, "ratio",
		fmt.Sprintf("median wall of %d traced / %d untraced reps", len(traced), len(plain)))
	sort.Slice(res.metrics, func(i, j int) bool { return res.metrics[i].Name < res.metrics[j].Name })

	var total int64
	for _, v := range cpuNS {
		total += v
	}
	var share []string
	for _, l := range layers {
		share = append(share, fmt.Sprintf("%s=%.1f%%", l, 100*ratio(float64(cpuNS[l]), float64(total))))
	}
	fmt.Printf("cpu-share %s\n", strings.Join(share, " "))
	if len(last.Missing) > 0 {
		fmt.Printf("missing families (reported as 0): %s\n", strings.Join(last.Missing, " "))
	}
	return res, nil
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// quantileNote says which quantile a tail summary really is.
func quantileNote(s Summary) string {
	if s.N <= minBeyond {
		return fmt.Sprintf("n=%d, too few for a tail", s.N)
	}
	return fmt.Sprintf("p%.4g, n=%d, beyond=%d", 100*s.Q, s.N, s.Beyond)
}
