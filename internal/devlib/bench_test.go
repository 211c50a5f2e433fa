package devlib

import (
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// BenchmarkLayerDevlibLaunch is the devlib layer's per-kernel-launch cost:
// two tenants alternate on one token device, so every LaunchKernel
// re-admits through the token strategy (the holder releases
// work-conservingly because the other tenant is queued) and pays the
// frontend, the strategy's grant and gpusim's kernel execution. One op is
// one launch; allocs/op is exact and is what TestTokenAdmissionAllocFree
// gates at zero.
func BenchmarkLayerDevlibLaunch(b *testing.B) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n"})
	backend := NewBackend(env, Config{})
	strat, err := backend.StrategyFor(dev.UUID(), "")
	if err != nil {
		b.Fatal(err)
	}
	launched := 0
	for _, id := range []string{"a", "b"} {
		f, err := NewFrontend(cuda.Open(dev, id), strat, id,
			Share{Request: 0.5, Limit: 1, Memory: 0.5}, backend.Config())
		if err != nil {
			b.Fatal(err)
		}
		env.Go(id, func(p *sim.Proc) {
			for launched < b.N {
				launched++
				if err := f.LaunchKernel(p, time.Millisecond); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	b.ReportMetric(float64(strat.Stats().Handoffs)/float64(b.N), "admissions/op")
}
