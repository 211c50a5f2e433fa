// Command perfbench is the repository benchmark: it runs one seeded
// workload through the simulator's public entry points, checks that the
// outputs are correct, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
// See README.md for the workloads, the metrics and how to read a traced
// run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: serve-token, sched-backlog or lifecycle-restart")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured time, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced pass writes spans and profiles to")
	rep := flag.Int("rep", -1, "internal: run repetition N in this process and print its record")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want serve-token, sched-backlog or lifecycle-restart)\n", *name)
		os.Exit(2)
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d", *name, *seed))
	var err error
	if *rep >= 0 {
		err = child(build, *seed, *trace == 1, dir, *rep)
	} else {
		err = run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// minReps is the fewest repetitions a pass makes, whatever its budget.
const minReps = 3

// run is the parent: it runs each repetition in a fresh child process
// until the budget is spent and reports over all of them. A finished Sim
// cannot be released (its parked procs stay reachable), so repetitions
// sharing a process would each inherit the garbage collector load and
// live heap of every earlier one.
func run(name string, seed int64, budget time.Duration, traced bool, dir string) error {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t go=%s cpus=%d gomaxprocs=%d\n",
		name, seed, budget.Seconds(), traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if traced {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	plain, tracedReps, err := measure(name, seed, budget, traced, dir)
	if err != nil {
		return err
	}
	res := endToEnd(plain)
	if traced {
		if res, err = perLayer(plain, tracedReps); err != nil {
			return err
		}
		fmt.Printf("artifacts %s\n", dir)
	}
	fmt.Printf("fingerprint %016x (%d repetitions agree)\n", res.fingerprint, res.reps)
	for _, m := range res.metrics {
		fmt.Printf("metric %-32s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs child repetitions until the budget is spent, at least
// minReps of each kind. With traced set it alternates untraced and traced
// repetitions, so both halves see the same machine. Every repetition must
// produce the first one's fingerprint.
func measure(name string, seed int64, budget time.Duration, traced bool, dir string) (plain, tracedReps []record, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var fingerprint uint64
	start := time.Now()
	for i := 0; ; i++ {
		short := len(plain) < minReps || traced && len(tracedReps) < minReps
		if !short && time.Since(start) >= budget {
			return plain, tracedReps, nil
		}
		tr := traced && i%2 == 1
		idx, trace := len(plain), "0"
		if tr {
			idx, trace = len(tracedReps), "1"
		}
		var stdout bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--trace", trace, "--out", filepath.Dir(dir), "--rep", strconv.Itoa(idx))
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("repetition %d (traced=%t): %w", i, tr, err)
		}
		var r record
		if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		if i == 0 {
			fingerprint = r.Fingerprint
		} else if r.Fingerprint != fingerprint {
			return nil, nil, fmt.Errorf("repetition %d (traced=%t) fingerprint %016x differs from %016x",
				i, tr, r.Fingerprint, fingerprint)
		}
		if tr {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
}

// record is what one child repetition reports to the parent.
type record struct {
	Setup       float64   `json:"setup_s"`
	Host        hostDelta `json:"host"`
	LiveMB      float64   `json:"heap_live_mb"`
	Fingerprint uint64    `json:"fingerprint"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	CreateErrs  int       `json:"create_errors"`
	// Model holds the modelled outcomes; they repeat exactly for a seed.
	Model []metric `json:"model"`
	// Layer is present on traced repetitions.
	Layer *layerRecord `json:"layer,omitempty"`
}

// child runs one repetition in this process: it builds the workload, runs
// the event loop to quiescence as the measured region, checks the outcome
// and prints its record.
func child(build buildFunc, seed int64, traced bool, dir string, idx int) error {
	var tr *tracer
	var prof *profiler
	if traced {
		tr, prof = newTracer(), newProfiler(dir, idx)
	}
	runtime.GC()
	start := time.Now()
	id := tr.begin("setup", 0)
	r, err := build(seed, tr)
	tr.end(id)
	setup := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	if err := prof.begin(); err != nil {
		return err
	}
	before := readHost()
	tr.runRoot(r.env.Run)
	after := readHost()
	if err := prof.end(); err != nil {
		return err
	}
	out, err := r.collect()
	if err != nil {
		return err
	}
	// The live heap with the whole Sim and its outcome still reachable. The
	// second GC empties the sync.Pool victim caches the first one filled, so
	// pooled buffers do not count as live.
	runtime.GC()
	runtime.GC()
	rec := record{
		Setup: setup, Host: after.since(before), LiveMB: float64(heapLive()) / (1 << 20),
		Fingerprint: out.fingerprint, Attempted: out.attempted, Failed: out.failed, CreateErrs: out.createErrs,
	}
	runtime.KeepAlive(r)
	if rec.Model, err = out.model(); err != nil {
		return err
	}
	if traced {
		if rec.Layer, err = newLayerRecord(out, tr, prof); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("spans-%02d.json", idx))); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}
