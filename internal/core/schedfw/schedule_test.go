package schedfw_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/oracle"
	"kubeshare/internal/core/schedfw"
)

// serialID mirrors the driver's vGPU ID generator; each pool under
// comparison gets its own counter so both see the same ID sequence.
func serialID() func() string {
	n := 0
	return func() string { n++; return fmt.Sprintf("vgpu-%04d", n) }
}

var (
	affLabels  = []string{"", "g1", "g2", "g3"}
	antiLabels = []string{"", "t1", "t2"}
	exclLabels = []string{"", "x1", "x2"}
)

// randomRequest draws a request over the label vocabulary. About a third
// ask for memory as a byte quantity (up to 1.5 devices' worth, so some fit
// only on over-committed pools and some on none); the rest ask for a
// fraction.
func randomRequest(rng *rand.Rand) core.Request {
	r := core.Request{
		Util: float64(rng.Intn(20)+1) / 20, // 0.05 … 1.00
		Aff:  affLabels[rng.Intn(len(affLabels))],
		Anti: antiLabels[rng.Intn(len(antiLabels))],
		Excl: exclLabels[rng.Intn(len(exclLabels))],
	}
	if rng.Intn(3) == 0 {
		r.MemBytes = int64(rng.Intn(24)+1) * (core.DeviceMemBytes / 16)
	} else {
		r.Mem = float64(rng.Intn(20)+1) / 20
	}
	return r
}

// randomPoolPair builds two structurally identical pools by replaying the
// same construction onto both: devices carved on random nodes, each loaded
// with a few placed requests (or left idle), plus free physical headroom.
// About a third of the pools over-commit memory by 1.5×.
func randomPoolPair(rng *rand.Rand) (*core.Pool, *core.Pool) {
	factor := 1.0
	if rng.Intn(3) == 0 {
		factor = 1.5
	}
	a := &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: factor}
	b := &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: factor}
	nodes := rng.Intn(4) + 1
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("node%d", n)
		free := rng.Intn(4)
		if free > 0 {
			a.FreePhysical[node] = free
			b.FreePhysical[node] = free
		}
		for g := 0; g < rng.Intn(4); g++ {
			id := fmt.Sprintf("gpu-%s-%d", node, g)
			da, db := core.NewDeviceState(id, node), core.NewDeviceState(id, node)
			da.MemCapacity, da.Mem = factor, factor
			db.MemCapacity, db.Mem = factor, factor
			for t := 0; t < rng.Intn(3); t++ {
				r := randomRequest(rng)
				if !da.Fits(r) {
					continue
				}
				da.Place(r)
				db.Place(r)
			}
			a.Devices = append(a.Devices, da)
			b.Devices = append(b.Devices, db)
		}
	}
	return a, b
}

// TestScheduleMatchesAlgorithm1 is the equivalence property: Schedule must
// make the same decision — outcome, device, node, reason — as the
// reference Algorithm 1 on every request of a random sequence, and leave
// the pool in the same state. The subtest names the reference's placement
// policy: Schedule implements only the paper's.
func TestScheduleMatchesAlgorithm1(t *testing.T) {
	t.Run("paper-policy", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			reference, pool := randomPoolPair(rng)
			txn := schedfw.NewTxn(pool)
			for step := 0; step < 30; step++ {
				r := randomRequest(rng)
				want := oracle.ScheduleWithPolicy(r, reference, oracle.PaperPolicy)
				got := schedfw.Schedule(&r, txn)
				if got != want {
					t.Fatalf("seed %d step %d req %+v: Schedule %+v, reference %+v", seed, step, r, got, want)
				}
			}
			if err := core.DiffPools(pool, reference); err != nil {
				t.Fatalf("seed %d: pools diverged after sequence: %v", seed, err)
			}
		}
	})
}

// TestTxnRollback pins the undo log: placements and device creations after a
// checkpoint roll back to exactly the checkpointed pool.
func TestTxnRollback(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		want, pool := randomPoolPair(rng) // want stays untouched as the reference
		txn := schedfw.NewTxn(pool)
		mark := txn.Checkpoint()
		for step := 0; step < 20; step++ {
			r := randomRequest(rng)
			schedfw.Schedule(&r, txn)
		}
		txn.Rollback(mark)
		if txn.Len() != 0 {
			t.Fatalf("seed %d: journal length %d after full rollback", seed, txn.Len())
		}
		if err := core.DiffPools(pool, want); err != nil {
			t.Fatalf("seed %d: rollback did not restore pool: %v", seed, err)
		}
	}
}

// TestTxnPartialRollback checks that rolling back to a mid-sequence mark
// keeps the prefix: replaying the prefix onto a fresh pool matches.
func TestTxnPartialRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reference, pool := randomPoolPair(rng)
	var reqs []core.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, randomRequest(rng))
	}

	txn := schedfw.NewTxn(pool)
	for i := range reqs[:6] {
		schedfw.Schedule(&reqs[i], txn)
	}
	mark := txn.Checkpoint()
	for i := range reqs[6:] {
		schedfw.Schedule(&reqs[6+i], txn)
	}
	txn.Rollback(mark)

	for _, r := range reqs[:6] {
		oracle.Schedule(r, reference)
	}
	if err := core.DiffPools(pool, reference); err != nil {
		t.Fatalf("partial rollback diverged from prefix replay: %v", err)
	}
}

// fullPool is a pool of n devices on 8-GPU nodes, each loaded to 0.1
// residual compute, with no free physical GPU left: a request for more
// than 0.1 fits nowhere and cannot open a device.
func fullPool(n int) *core.Pool {
	pool := &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: 1}
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("node-%03d", i/8)
		pool.FreePhysical[node] = 0
		d := core.NewDeviceState(fmt.Sprintf("vgpu-%05d", i), node)
		d.Place(core.Request{Util: 0.9, Mem: 0.5, Anti: "t1"})
		pool.Devices = append(pool.Devices, d)
	}
	return pool
}

// TestScheduleNoCapacityAllocFree pins the cost of the commonest decision
// under a backlog: a request that fits no device on a cluster with no free
// physical GPU scans the whole pool and returns NoCapacity without
// allocating.
func TestScheduleNoCapacityAllocFree(t *testing.T) {
	txn := schedfw.NewTxn(fullPool(1024))
	for _, r := range []core.Request{
		{Util: 0.5, Mem: 0.1},
		{Util: 0.05, Mem: 0.1, Anti: "t1"},
		{Util: 0.5, MemBytes: core.DeviceMemBytes / 4, Excl: "x1"},
	} {
		var dec core.Decision
		allocs := testing.AllocsPerRun(100, func() { dec = schedfw.Schedule(&r, txn) })
		if dec.Outcome != core.NoCapacity {
			t.Fatalf("req %+v: decision %+v, want NoCapacity", r, dec)
		}
		if allocs != 0 {
			t.Fatalf("req %+v: %.1f allocs per NoCapacity decision, want 0", r, allocs)
		}
	}
	if txn.Len() != 0 {
		t.Fatalf("NoCapacity decisions journaled %d mutations", txn.Len())
	}
}

// BenchmarkLayerSchedule is the schedfw layer cost per decision, on pools
// the size of the fig16 10k point (1024 devices) and ten times that:
//   - nocapacity: the request fits no device and no physical GPU is free
//     (the backlog re-try path);
//   - assigned: the request best-fits an existing device; each placement is
//     rolled back so every iteration sees the same pool.
func BenchmarkLayerSchedule(b *testing.B) {
	for _, n := range []int{1024, 10240} {
		b.Run(fmt.Sprintf("devices=%d/nocapacity", n), func(b *testing.B) {
			txn := schedfw.NewTxn(fullPool(n))
			r := core.Request{Util: 0.5, Mem: 0.1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				schedfw.Schedule(&r, txn)
			}
		})
		b.Run(fmt.Sprintf("devices=%d/assigned", n), func(b *testing.B) {
			txn := schedfw.NewTxn(fullPool(n))
			r := core.Request{Util: 0.05, Mem: 0.1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark := txn.Checkpoint()
				schedfw.Schedule(&r, txn)
				txn.Rollback(mark)
			}
		})
	}
}

// BenchmarkAlgorithm1 measures a single Schedule call against pools of
// varying size — the pure-decision cost underneath Figure 11.
func BenchmarkAlgorithm1(b *testing.B) {
	for _, devices := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			mk := func() *schedfw.Txn {
				pool := &core.Pool{FreePhysical: map[string]int{"n0": 4}, NewID: serialID()}
				for i := 0; i < devices; i++ {
					d := core.NewDeviceState(fmt.Sprintf("d%03d", i), "n0")
					d.Idle = false
					d.Util = float64(i%10) / 10
					d.Mem = 0.5
					pool.Devices = append(pool.Devices, d)
				}
				return schedfw.NewTxn(pool)
			}
			txn := mk()
			r := core.Request{Util: 0.05, Mem: 0.01}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				schedfw.Schedule(&r, txn)
				if i%512 == 511 {
					b.StopTimer()
					txn = mk() // residuals exhausted; rebuild
					b.StartTimer()
				}
			}
		})
	}
}
