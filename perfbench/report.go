package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// metric is one reported figure. Note carries what the JSON line cannot:
// sample counts, the quantile actually measured, quartiles.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
	// TextOnly metrics are printed but kept out of the JSON line, whose
	// keys are exactly the metrics BENCHMARK.json declares.
	TextOnly bool `json:"text_only,omitempty"`
}

type result struct {
	fingerprint uint64
	reps        int
	attempted   int
	failed      int
	metrics     []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) json() any {
	ms := make(map[string]jsonMetric)
	for _, m := range r.metrics {
		if !m.TextOnly {
			ms[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{true, r.attempted, r.failed, ms}
}

// newResult sums attempts and failures over the repetitions.
func newResult(reps []record) result {
	res := result{fingerprint: reps[0].Fingerprint, reps: len(reps)}
	for _, r := range reps {
		res.attempted += r.Attempted
		res.failed += r.Failed
	}
	return res
}

// hostMedian reports the median of a per-repetition host figure with its
// quartiles.
func hostMedian(name, unit string, reps []record, f func(record) float64) metric {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	s := sorted(xs)
	return metric{Name: name, Value: Percentile(s, 0.5).Value, Unit: unit,
		Note: fmt.Sprintf("median of %d reps, q1 %.6g q3 %.6g", len(s),
			Percentile(s, 0.25).Value, Percentile(s, 0.75).Value)}
}

// endToEnd turns the measured repetitions into the end-to-end metrics.
func endToEnd(reps []record) result {
	res := newResult(reps)
	last := reps[len(reps)-1]
	res.metrics = []metric{
		hostMedian("wall_s", "s", reps, func(r record) float64 { return r.Host.Wall }),
		hostMedian("cpu_s", "s", reps, func(r record) float64 { return r.Host.CPU }),
		hostMedian("alloc_mb", "MB", reps, func(r record) float64 { return r.Host.AllocMB }),
		hostMedian("heap_live_mb", "MB", reps, func(r record) float64 { return r.LiveMB }),
		hostMedian("setup_s", "s", reps, func(r record) float64 { return r.Setup }),
		{Name: "failed_frac", Value: float64(last.Failed) / float64(last.Attempted), Unit: "ratio", TextOnly: true,
			Note: fmt.Sprintf("%d of %d sharePods per rep, %d failed Creates (carried as failed/attempted)",
				last.Failed, last.Attempted, last.CreateErrs)},
	}
	res.metrics = append(res.metrics, last.Model...)
	return res
}

// model returns the modelled outcomes the workload is for. Each p99 needs
// 1000 samples. They repeat exactly for a seed, so they are printed with
// the fingerprint instead of being bounded in the JSON line.
func (o outcome) model() ([]metric, error) {
	var ms []metric
	if o.launches > 0 {
		ms = append(ms, metric{Name: "model_jobs_per_min", Value: o.jobsPerMin, Unit: "jobs/min",
			Note: "virtual", TextOnly: true})
	}
	samples := o.latencies(o.latency)
	p50 := Percentile(samples, 0.5)
	p99, ok := Tail(samples, 0.99)
	if !ok || p99.N < 1000 {
		return nil, fmt.Errorf("%s_p99_ms needs at least 1000 samples, got %d", o.latency, p99.N)
	}
	return append(ms,
		metric{Name: o.latency + "_p50_ms", Value: p50.Value, Unit: "ms", TextOnly: true,
			Note: fmt.Sprintf("virtual, n=%d", p50.N)},
		metric{Name: o.latency + "_p99_ms", Value: p99.Value, Unit: "ms", TextOnly: true,
			Note: fmt.Sprintf("virtual, n=%d beyond=%d", p99.N, p99.Beyond)},
	), nil
}

// profiler takes a CPU profile and an allocation-profile pair around the
// traced region, writes them out, and keeps their per-layer sums.
type profiler struct {
	dir   string
	idx   int
	cpu   bytes.Buffer
	base  []byte
	cpuNS map[string]int64
	alloc map[string]int64 // bytes, region only
	// samples counts CPU samples overall and per layer, for the sum check.
	samples, layerSamples int64
}

func newProfiler(dir string, idx int) *profiler {
	return &profiler{dir: dir, idx: idx, alloc: map[string]int64{}}
}

func allocsProfile() ([]byte, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// begin runs right after a forced GC, so the base allocation profile is
// current.
func (p *profiler) begin() error {
	if p == nil {
		return nil
	}
	var err error
	if p.base, err = allocsProfile(); err != nil {
		return err
	}
	return pprof.StartCPUProfile(&p.cpu)
}

func (p *profiler) end() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	// A completed GC publishes the region's allocations to the profile.
	runtime.GC()
	after, err := allocsProfile()
	if err != nil {
		return err
	}
	cpu, err := attribute(p.cpu.Bytes(), "cpu")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	counts, err := attribute(p.cpu.Bytes(), "samples")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	a0, err := attribute(p.base, "alloc_space")
	if err != nil {
		return fmt.Errorf("allocs profile: %w", err)
	}
	a1, err := attribute(after, "alloc_space")
	if err != nil {
		return fmt.Errorf("allocs profile: %w", err)
	}
	p.cpuNS = cpu.byLayer
	for _, v := range counts.byLayer {
		p.layerSamples += v
	}
	p.samples = counts.total
	for l, v := range a1.byLayer {
		p.alloc[l] = v - a0.byLayer[l]
	}
	for name, b := range map[string][]byte{"cpu": p.cpu.Bytes(), "allocs-base": p.base, "allocs": after} {
		path := filepath.Join(p.dir, fmt.Sprintf("%s-%02d.pb.gz", name, p.idx))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
