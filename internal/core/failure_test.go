package core_test

import (
	"errors"
	"fmt"
	. "kubeshare/internal/core"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/sim"
)

// TestTenantCrashReleasesShare: one of two co-located tenants crashes
// mid-run; the survivor inherits the freed capacity and the vGPU is
// reclaimed once both are gone.
func TestTenantCrashReleasesShare(t *testing.T) {
	s := newStack(t, 1, Config{})
	crashAfter := 5 * time.Second
	s.c.Images.Register("crasher", func(ctx *runtime.Ctx) error {
		deadline := ctx.Proc.Env().Now() + crashAfter
		for ctx.Proc.Env().Now() < deadline {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return errors.New("CUDA_ERROR_ILLEGAL_ADDRESS")
	})
	s.env.Go("submit", func(p *sim.Proc) {
		crash := &SharePod{
			ObjectMeta: api.ObjectMeta{Name: "crash"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 0.5, GPUMem: 0.2,
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "crasher"}}},
			},
		}
		s.create(t, crash)
		s.create(t, sharePod("survivor", 0.5, 1.0, 0.2, 20))
	})
	s.env.Run()
	crash := s.get(t, "crash")
	if crash.Status.Phase != SharePodFailed {
		t.Fatalf("crash phase = %s", crash.Status.Phase)
	}
	survivor := s.get(t, "survivor")
	if survivor.Status.Phase != SharePodSucceeded {
		t.Fatalf("survivor phase = %s (%s)", survivor.Status.Phase, survivor.Status.Message)
	}
	// After the crash the survivor had the device alone at gpu_limit 1.0:
	// 20s of work should complete in well under 2×20s.
	wall := survivor.Status.FinishTime - survivor.Status.RunningTime
	if wall > 30*time.Second {
		t.Fatalf("survivor wall %v; crashed tenant's share not released", wall)
	}
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs not reclaimed: %d", n)
	}
	// The crashed tenant's token registration must be gone.
	strat := s.ks.Backends["node-0"].StrategyOf(crash.Status.UUID)
	if strat == nil {
		t.Fatal("no strategy on the crashed tenant's device")
	}
	if strat.Clients() != 0 {
		t.Fatal("crashed client still registered with the device's strategy")
	}
}

// TestMassChurn: rapid create/delete cycles leave no residue — no pods, no
// vGPUs, no token-manager clients, full device-plugin capacity.
func TestMassChurn(t *testing.T) {
	s := newStack(t, 2, Config{})
	s.env.Go("churn", func(p *sim.Proc) {
		for round := 0; round < 5; round++ {
			var names []string
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("churn-%d-%d", round, i)
				names = append(names, name)
				s.create(t, sharePod(name, 0.3, 0.5, 0.2, 3600))
			}
			p.Sleep(time.Duration(1+round) * time.Second) // delete at varying lifecycle stages
			for _, name := range names {
				if err := SharePods(s.c.API).Delete(name); err != nil {
					t.Errorf("delete %s: %v", name, err)
				}
			}
			p.Sleep(2 * time.Second)
		}
	})
	s.env.Run()
	if n := len(s.c.Pods().List()); n != 0 {
		t.Fatalf("pods remain: %d", n)
	}
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain: %d", n)
	}
	for _, node := range s.c.Nodes {
		if got := node.Kubelet.DeviceManager().Capacity()[api.ResourceGPU]; got != 4 {
			t.Fatalf("node %s capacity %d", node.Name, got)
		}
		for _, dev := range node.GPUs {
			if dev.ActiveContexts() != 0 {
				t.Fatalf("leaked CUDA context on %s", dev.UUID())
			}
			if dev.MemoryUsed() != 0 {
				t.Fatalf("leaked device memory on %s", dev.UUID())
			}
		}
	}
	if s.env.Now() > 2*time.Minute {
		t.Fatalf("churn left live timers until %v", s.env.Now())
	}
}

// TestRapidDeleteBeforeScheduling: deleting a sharePod before KubeShare-
// Sched touches it must be clean (no vGPU, no bound pod).
func TestRapidDeleteBeforeScheduling(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		s.create(t, sharePod("flash", 0.5, 0.5, 0.2, 10))
		// Delete within the scheduler's cycle latency.
		p.Sleep(time.Millisecond)
		if err := SharePods(s.c.API).Delete("flash"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	s.env.Run()
	if n := len(s.c.Pods().List()); n != 0 {
		t.Fatalf("pods remain: %d", n)
	}
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain: %d", n)
	}
}

// TestOOMInContainerFailsSharePodOnly: a tenant exceeding its gpu_mem gets
// an OOM and fails; its GPU neighbour is unaffected.
func TestOOMInContainerFailsSharePodOnly(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.c.Images.Register("hog", func(ctx *runtime.Ctx) error {
		// Allocate beyond the container's 0.25 share of 16 GiB.
		if _, err := ctx.CUDA.MemAlloc(ctx.Proc, 8<<30); err != nil {
			return err
		}
		return nil
	})
	s.env.Go("submit", func(p *sim.Proc) {
		bad := &SharePod{
			ObjectMeta: api.ObjectMeta{Name: "oom"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 0.5, GPUMem: 0.25,
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "hog"}}},
			},
		}
		s.create(t, bad)
		s.create(t, sharePod("neighbour", 0.5, 0.5, 0.25, 3))
	})
	s.env.Run()
	if got := s.get(t, "oom"); got.Status.Phase != SharePodFailed {
		t.Fatalf("oom phase = %s", got.Status.Phase)
	}
	if got := s.get(t, "neighbour"); got.Status.Phase != SharePodSucceeded {
		t.Fatalf("neighbour phase = %s (%s)", got.Status.Phase, got.Status.Message)
	}
}
