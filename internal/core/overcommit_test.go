package core_test

import (
	. "kubeshare/internal/core"
	"testing"
	"time"

	"kubeshare/internal/devlib"
	"kubeshare/internal/sim"
)

// TestMemOvercommitEndToEnd: two sharePods with gpu_mem 0.7 each cannot
// coexist on one GPU normally, but with over-commitment enabled the
// scheduler co-locates them and the device library swaps their working
// sets. Both jobs complete, slower than without contention.
func TestMemOvercommitEndToEnd(t *testing.T) {
	mk := func(cfg Config) (*testStack, []string) {
		s := newStack(t, 1, cfg)
		names := []string{"big-a", "big-b"}
		s.env.Go("submit", func(p *sim.Proc) {
			for _, n := range names {
				sp := sharePod(n, 0.5, 0.5, 0.7, 2)
				s.create(t, sp)
			}
		})
		return s, names
	}

	// Without over-commitment: gpu_mem 0.7+0.7 > 1 forces two separate
	// physical GPUs.
	plain, names := mk(Config{})
	plain.env.Run()
	uuids := map[string]bool{}
	for _, n := range names {
		sp := plain.get(t, n)
		if sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("%s: %s (%s)", n, sp.Status.Phase, sp.Status.Message)
		}
		uuids[sp.Status.UUID] = true
	}
	if len(uuids) != 2 {
		t.Fatalf("plain mode co-located memory-heavy tenants: %d GPUs", len(uuids))
	}

	// With over-commitment (factor 1.5): both land on one GPU and swap.
	oc, names := mk(Config{
		Scheduler: SchedulerConfig{MemOvercommitFactor: 1.5},
		Devlib:    devlib.Config{MemOvercommit: true, SwapBandwidth: 64 << 30},
	})
	oc.env.Run()
	uuids = map[string]bool{}
	for _, n := range names {
		sp := oc.get(t, n)
		if sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("overcommit %s: %s (%s)", n, sp.Status.Phase, sp.Status.Message)
		}
		uuids[sp.Status.UUID] = true
	}
	if len(uuids) != 1 {
		t.Fatalf("over-commitment did not co-locate: %d GPUs", len(uuids))
	}
	strat := oc.ks.Backends["node-0"].StrategyOf(firstKey(uuids))
	if strat == nil || strat.Stats().SwappedBytes == 0 {
		t.Fatal("no swap traffic despite over-committed working sets")
	}
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

// TestMemOvercommitSlowerThanFitting quantifies the paper's §6 warning: the
// swap traffic costs real time relative to the same jobs with fitting sets.
func TestMemOvercommitSlowerThanFitting(t *testing.T) {
	run := func(mem float64, factor float64) time.Duration {
		cfg := Config{}
		if factor > 1 {
			cfg.Scheduler.MemOvercommitFactor = factor
			cfg.Devlib = devlib.Config{MemOvercommit: true, SwapBandwidth: 12 << 30}
		}
		s := newStack(t, 1, cfg)
		s.env.Go("submit", func(p *sim.Proc) {
			s.create(t, sharePod("a", 0.5, 0.5, mem, 2))
			s.create(t, sharePod("b", 0.5, 0.5, mem, 2))
		})
		s.env.Run()
		var last time.Duration
		for _, n := range []string{"a", "b"} {
			sp := s.get(t, n)
			if sp.Status.Phase != SharePodSucceeded {
				t.Fatalf("%s: %s (%s)", n, sp.Status.Phase, sp.Status.Message)
			}
			if sp.Status.FinishTime > last {
				last = sp.Status.FinishTime
			}
		}
		return last
	}
	fitting := run(0.4, 1)     // both sets fit: no swap
	thrashing := run(0.7, 1.5) // over-committed: swaps at every handoff
	if thrashing <= fitting {
		t.Fatalf("over-commit %v not slower than fitting %v", thrashing, fitting)
	}
}
