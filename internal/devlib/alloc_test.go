package devlib

import (
	"runtime"
	"testing"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// newObsRig is newRig with a telemetry runtime on the rig's clock.
func newObsRig() (*rig, *obs.Runtime) {
	env := sim.NewEnv()
	rt := obs.New(env)
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n"})
	b := NewBackend(env, Config{Obs: rt})
	strat, err := b.StrategyFor(dev.UUID(), "")
	if err != nil {
		panic(err)
	}
	return &rig{env: env, dev: dev, b: b, strat: strat}, rt
}

// TestTokenAdmissionAllocFree pins the kernel-launch hot path: once two
// tenants alternate on one token device, every launch re-admits (the holder
// releases work-conservingly because the other tenant is queued), and that
// steady-state admission — LaunchKernel → acquireLease → Token.Admit /
// trySchedule — must not allocate. Telemetry and exemplars are on so the
// grant's metric and exemplar paths are covered too. The budget (≤1
// allocation and ≤64 B per admission, averaged) leaves room for rare
// amortized growth elsewhere in the kernel, but not for a per-admission
// heap value such as a seeded backoff, a boxed lease or a built key.
func TestTokenAdmissionAllocFree(t *testing.T) {
	r, rt := newObsRig()
	rt.EnableExemplars()
	var done [2]int
	for i, id := range []string{"a", "b"} {
		f := r.addClient(t, id, Share{Request: 0.5, Limit: 1, Memory: 0.5})
		f.SetTraceKey("SharePod/" + id)
		r.env.Go(id, trainLoop(f, time.Millisecond, 0, &done[i]))
	}
	// Warm up past one usage window so per-client span rings, queues and
	// event pools have reached their steady-state capacity.
	r.env.RunUntil(DefaultWindow + time.Second)

	const minAdmissions = 1000
	h0 := r.strat.Stats().Handoffs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.env.RunUntil(DefaultWindow + 3*time.Second)
	runtime.ReadMemStats(&m1)
	n := r.strat.Stats().Handoffs - h0
	if n < minAdmissions {
		t.Fatalf("only %d admissions in the measured interval, want ≥ %d", n, minAdmissions)
	}
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(n)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("%d admissions: %.3f allocs, %.1f B per admission", n, allocs, bytes)
	if allocs > 1 || bytes > 64 {
		t.Fatalf("token admission allocates %.3f objects / %.1f B per admission, want ≤ 1 / ≤ 64 B", allocs, bytes)
	}
}
