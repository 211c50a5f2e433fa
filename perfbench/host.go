package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// hostStat is a reading of the process's host-side cost counters.
type hostStat struct {
	wall     time.Time
	cpu      time.Duration // user + sys of every thread, GC workers included
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	gcCycles uint64
}

var hostMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readHost() hostStat {
	s := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostStat{
		wall:     time.Now(),
		cpu:      cpu,
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// heapLive is the live heap as of the last completed GC; call it right
// after runtime.GC for an exact figure.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostDelta is the cost of one measured region.
type hostDelta struct {
	Wall     float64 `json:"wall_s"`
	CPU      float64 `json:"cpu_s"`
	GCCPU    float64 `json:"gc_cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
}

func (b hostStat) since(a hostStat) hostDelta {
	return hostDelta{
		Wall:     b.wall.Sub(a.wall).Seconds(),
		CPU:      (b.cpu - a.cpu).Seconds(),
		GCCPU:    b.gcCPU - a.gcCPU,
		AllocMB:  float64(b.alloc-a.alloc) / (1 << 20),
		GCCycles: float64(b.gcCycles - a.gcCycles),
	}
}
