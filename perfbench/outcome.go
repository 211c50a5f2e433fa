package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/obs"
)

// outcome is what one repetition produced on the virtual clock, plus the
// registry snapshot. Everything in it repeats exactly for a given seed.
type outcome struct {
	latency     string // see rig.latency
	fingerprint uint64
	attempted   int
	failed      int // attempted jobs that did not end Succeeded
	createErrs  int // of which the Create call itself failed
	placed      int
	jobsPerMin  float64
	// Virtual milliseconds, ascending: CreationTime → ScheduledTime,
	// CreationTime → first entrypoint start, request arrival → kernel done,
	// LaunchKernel call → kernel start.
	queue, startup, req, wait []float64
	launches                  int64
	restarts, replayed        int
	spans                     int
	snap                      obs.MetricsSnapshot
}

// collect reads the repetition's results through the public clients and
// runs the correctness checks; a failed check is an error.
func (r *rig) collect() (outcome, error) {
	o := outcome{latency: r.latency, attempted: r.attempted, createErrs: r.createErrs, restarts: r.restarts, replayed: r.replayed}
	sps := core.SharePods(r.srv).List()
	sort.Slice(sps, func(i, j int) bool { return sps[i].Name < sps[j].Name })
	h := fnv.New64a()
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	completed := 0
	for _, sp := range sps {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d\n", sp.Name, sp.Spec.NodeName, sp.Spec.GPUID,
			sp.Status.ScheduledTime, sp.Status.FinishTime)
		first = min(first, sp.CreationTime)
		if sp.Placed() {
			o.placed++
			o.queue = append(o.queue, ms(sp.Status.ScheduledTime-sp.CreationTime))
		}
		if sp.Status.Phase == core.SharePodSucceeded {
			completed++
			last = max(last, sp.Status.FinishTime)
		}
		if r.img != nil {
			if t, ok := r.img.start[sp.Name]; ok {
				o.startup = append(o.startup, ms(t-sp.CreationTime))
			}
		}
	}
	// Failed Creates and lost sharePods never reach Succeeded either.
	o.failed = o.attempted - completed
	if last > first {
		o.jobsPerMin = float64(completed) / (last - first).Minutes()
	}
	if r.img != nil {
		o.req, o.wait, o.launches = sorted(r.img.req), sorted(r.img.wait), r.img.launches
	}
	o.queue, o.startup = sorted(o.queue), sorted(o.startup)
	// The request-latency histogram at full resolution.
	var b [8]byte
	for _, v := range o.req {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	o.fingerprint = h.Sum64()
	o.snap = r.srv.Obs().Snapshot()
	o.spans = r.srv.Obs().Tracer().Len()

	if r.img != nil {
		if got := o.snap.Counter("kubeshare_gpu_kernel_launches_total"); got != o.launches {
			return o, fmt.Errorf("image launched %d kernels, registry counted %d", o.launches, got)
		}
	}
	if err := r.quiescence(); err != nil {
		return o, fmt.Errorf("quiescence: %w", err)
	}
	return o, nil
}

// latencies returns the modelled latency samples by metric stem.
func (o outcome) latencies(stem string) []float64 {
	switch stem {
	case "model_req":
		return o.req
	case "model_queue":
		return o.queue
	case "model_startup":
		return o.startup
	}
	return nil
}
