package kubeshare

import (
	"reflect"
	"testing"
	"time"

	"kubeshare/internal/sim"
)

func TestFacadeQuickstart(t *testing.T) {
	s, err := New(WithNodes(1))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("hello-gpu", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	var got *SharePod
	s.Go("main", func(p *sim.Proc) {
		_, err := s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "hello"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "hello-gpu"}}},
			},
		})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		q := s.Watch(KindSharePod, WatchOptions{Name: "hello", Replay: true})
		defer s.StopWatch(q)
		for {
			ev, ok := q.Get(p)
			if !ok {
				t.Error("watch closed waiting for hello")
				return
			}
			if sp := ev.Object.(*SharePod); sp.Terminated() {
				got = sp
				return
			}
		}
	})
	s.Run()
	if got == nil || got.Status.Phase != SharePodSucceeded {
		t.Fatalf("sharePod = %+v", got)
	}
}

func TestFacadeRunForAdvancesTime(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	s.RunFor(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestFacadeWithoutKubeShare(t *testing.T) {
	s, err := New(WithoutKubeShare())
	if err != nil {
		t.Fatal(err)
	}
	if s.KS != nil {
		t.Fatal("KubeShare installed despite WithoutKubeShare")
	}
	// SharePods are inert without controllers: creation works (no
	// validator either) but nothing schedules them; native pods still run.
	s.RegisterImage("noop", func(ctx *ContainerCtx) error { return nil })
	s.Go("main", func(p *sim.Proc) {
		if _, err := s.Pods().Create(&Pod{
			ObjectMeta: ObjectMeta{Name: "native"},
			Spec:       PodSpec{Containers: []Container{{Name: "c", Image: "noop"}}},
		}); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	s.Run()
	pod, err := s.Pods().Get("native")
	if err != nil || pod.Status.Phase != "Succeeded" {
		t.Fatalf("pod = %+v err=%v", pod, err)
	}
}

func TestFacadeExtenderOption(t *testing.T) {
	s, err := New(WithExtenderScheduler(), WithGPUsPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("burn", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, time.Second)
	})
	s.Go("main", func(p *sim.Proc) {
		for _, n := range []string{"x", "y"} {
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: n},
				Spec: SharePodSpec{
					GPURequest: 0.5, GPULimit: 0.5, GPUMem: 0.2,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burn"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", n, err)
			}
		}
	})
	s.Run()
	for _, n := range []string{"x", "y"} {
		sp, err := s.SharePods().Get(n)
		if err != nil || sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("%s: %+v err=%v", n, sp, err)
		}
		// Extender ids are round-robin per node.
		if sp.Spec.GPUID == "" {
			t.Fatalf("%s not placed", n)
		}
	}
}

func TestFacadePoolPolicyOption(t *testing.T) {
	s, err := New(WithPoolPolicy(Reservation))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("quick", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "one"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.2,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "quick"}}},
			},
		})
	})
	s.RunFor(time.Minute)
	vgpus := s.VGPUs().List()
	if len(vgpus) != 1 {
		t.Fatalf("vGPUs = %d, want 1 idle (reservation)", len(vgpus))
	}
}

func TestFacadeUsageRate(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("spin", func(ctx *ContainerCtx) error {
		for i := 0; i < 10000; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "spin"},
			Spec: SharePodSpec{
				GPURequest: 0.3, GPULimit: 0.6, GPUMem: 0.2,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "spin"}}},
			},
		})
	})
	s.RunFor(30 * time.Second)
	usage := s.Stats().Usage
	rate := usage["spin"]
	if rate < 0.5 || rate > 0.65 {
		t.Fatalf("usage rate %.3f, want ≈0.6 (throttled at limit)", rate)
	}
	if _, ok := usage["ghost"]; ok {
		t.Fatal("unknown sharePod has usage entry")
	}
}

// TestFacadeStatsHasNoTelemetrySideEffects: taking a Stats snapshot of a
// running sharePod on an MPS device must not instantiate a token strategy
// (and with it zero-valued token-metric series) for that device.
func TestFacadeStatsHasNoTelemetrySideEffects(t *testing.T) {
	s, err := New(WithNodes(1))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("spin", func(ctx *ContainerCtx) error {
		for i := 0; i < 1000; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
	s.Go("main", func(p *sim.Proc) {
		if _, err := s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "overlap"},
			Spec: SharePodSpec{
				GPURequest: 0.3, GPULimit: 0.6, GPUMem: 0.2, SharingMode: "mps",
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "spin"}}},
			},
		}); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	s.RunFor(5 * time.Second)
	// Stats lists sharePods through the API server, which legitimately
	// counts the reads; every other series must stay as it was.
	metrics := func() MetricsSnapshot {
		m := s.Metrics()
		kept := m.Counters[:0]
		for _, c := range m.Counters {
			if c.Name != "kubeshare_apiserver_read_requests_total" {
				kept = append(kept, c)
			}
		}
		m.Counters = kept
		return m
	}
	before := metrics()
	st := s.Stats()
	if st.RunningSharePods != 1 {
		t.Fatalf("running sharePods = %d, want the MPS tenant running", st.RunningSharePods)
	}
	if after := metrics(); !reflect.DeepEqual(before, after) {
		t.Fatalf("Stats() changed the metrics snapshot:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestFacadeDeviceChangesModeAcrossVGPUs reuses one physical GPU for two
// vGPUs in turn: an MPS tenant runs to completion (its vGPU is released
// under the on-demand pool), then a default-mode tenant gets a fresh vGPU on
// the same device and must be served by the token strategy.
func TestFacadeDeviceChangesModeAcrossVGPUs(t *testing.T) {
	s, err := New(WithNodes(1), WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("burst", func(ctx *ContainerCtx) error {
		for i := 0; i < 10; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
	create := func(name, mode string) {
		if _, err := s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: name},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25, SharingMode: mode,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burst"}}},
			},
		}); err != nil {
			t.Errorf("create %s: %v", name, err)
		}
	}
	s.Go("main", func(p *sim.Proc) { create("overlap", "mps") })
	s.RunFor(time.Minute)
	if n := len(s.VGPUs().List()); n != 0 {
		t.Fatalf("vGPUs = %d after the MPS tenant finished, want 0", n)
	}
	s.Go("main", func(p *sim.Proc) { create("sliced", "") })
	s.RunFor(time.Minute)
	first, err := s.SharePods().Get("overlap")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SharePods().Get("sliced")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []*SharePod{first, second} {
		if sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("%s: %s (%s)", sp.Name, sp.Status.Phase, sp.Status.Message)
		}
	}
	if first.Status.UUID != second.Status.UUID {
		t.Fatalf("tenants ran on %s and %s, want the single GPU reused", first.Status.UUID, second.Status.UUID)
	}
	if strat := s.KS.Backends["node-0"].StrategyOf(second.Status.UUID); strat == nil || strat.Mode() != "token" {
		t.Fatal("device not served by the token strategy after the mode change")
	}
}

func TestFacadeTokenQuotaOption(t *testing.T) {
	s, err := New(WithTokenQuota(30 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if s.KS.Backends["node-0"].Config().Quota != 30*time.Millisecond {
		t.Fatalf("quota = %v", s.KS.Backends["node-0"].Config().Quota)
	}
}

func TestFacadeWatchNameFilteredNoWake(t *testing.T) {
	s, err := New(WithNodes(1))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("noop-gpu", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 50*time.Millisecond)
	})
	// Subscribe to a sharePod that will never exist, then generate plenty of
	// unrelated churn. The name filter must keep the queue silent.
	q := s.Watch(KindSharePod, WatchOptions{Name: "never-created", Replay: true})
	defer s.StopWatch(q)
	s.Go("main", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			name := "churn-" + string(rune('a'+i))
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: name},
				Spec: SharePodSpec{
					GPURequest: 0.2, GPULimit: 0.5, GPUMem: 0.1,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "noop-gpu"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", name, err)
			}
		}
	})
	s.Run()
	if ev, ok := q.TryGet(); ok {
		t.Fatalf("name-filtered watch woke on unrelated event: %+v", ev)
	}
	// A selector-filtered watch over the same churn does deliver events.
	q2 := s.Watch(KindSharePod, WatchOptions{Replay: true})
	defer s.StopWatch(q2)
	if _, ok := q2.TryGet(); !ok {
		t.Fatal("unfiltered replay watch saw nothing")
	}
}

func TestFacadeStats(t *testing.T) {
	s, err := New(WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("work", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 200*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		for _, name := range []string{"a", "b"} {
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: name},
				Spec: SharePodSpec{
					GPURequest: 0.4, GPULimit: 0.8, GPUMem: 0.2,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "work"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", name, err)
			}
		}
	})
	s.Run()
	st := s.Stats()
	if st.SharePods != 2 || st.TerminatedSharePods != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Nodes != 2 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.Decisions == 0 {
		t.Fatal("no scheduling decisions recorded")
	}
	// All sharePods are done: vGPUs have been garbage-collected and nothing
	// is reporting usage.
	if len(st.Usage) != 0 {
		t.Fatalf("usage reported for terminated sharePods: %v", st.Usage)
	}
}

// TestFacadeTraceCausalChain drives one sharePod to completion and checks
// that its life is reconstructable from Sim.Trace() as a single causally
// linked chain crossing all six instrumented layers.
func TestFacadeTraceCausalChain(t *testing.T) {
	s, err := New(WithNodes(1))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("traced", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "traced"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "traced"}}},
			},
		})
	})
	s.Run()

	chain := TraceChain(s.Trace(), "SharePod/traced")
	want := []struct{ component, op string }{
		{"apiserver", "create"},
		{"kubeshare-sched", "schedule"},
		{"devmgr", "bind"},
		{"devmgr", "holder-ready"},
		{"kubelet", "pod-sync"},
		{"devlib", "token-grant"},
		{"gpusim", "kernel-launch"},
	}
	var gotOps []string
	for _, sp := range chain {
		gotOps = append(gotOps, sp.Component+"/"+sp.Op)
	}
	idx := 0
	for _, sp := range chain {
		if idx < len(want) && sp.Component == want[idx].component && sp.Op == want[idx].op {
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("chain missing milestone %s/%s; got %v", want[idx].component, want[idx].op, gotOps)
	}
	// Every span after the root must be causally linked within the chain.
	ids := map[int64]bool{}
	for i, sp := range chain {
		ids[sp.ID] = true
		if i == 0 {
			if sp.Parent != 0 {
				t.Fatalf("root span has parent %d", sp.Parent)
			}
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("span #%d (%s/%s) parent #%d not in chain", sp.ID, sp.Component, sp.Op, sp.Parent)
		}
	}

	// Metrics and events from the same run.
	m := s.Metrics()
	if m.Counter("kubeshare_sched_decisions_total") == 0 {
		t.Fatal("no decisions counted")
	}
	if m.Counter("kubeshare_devmgr_vgpu_creates_total") != 1 {
		t.Fatalf("vgpu creates = %d", m.Counter("kubeshare_devmgr_vgpu_creates_total"))
	}
	if h, ok := m.Histogram("kubeshare_sched_latency_seconds"); !ok || h.Count == 0 {
		t.Fatal("scheduling-latency histogram empty")
	}
	found := false
	for _, ev := range s.Events() {
		if ev.Source == "kubelet/node-0" && ev.Reason == "Started" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no kubelet Started event in %d events", len(s.Events()))
	}
	// Events are also persisted as first-class objects.
	if len(s.EventObjects()) == 0 {
		t.Fatal("no api.Event objects persisted")
	}
}

func TestFacadeWithoutObservability(t *testing.T) {
	s, err := New(WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterImage("dark", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 50*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "dark"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "dark"}}},
			},
		})
	})
	s.Run()
	sp, err := s.SharePods().Get("dark")
	if err != nil || sp.Status.Phase != SharePodSucceeded {
		t.Fatalf("sharePod = %+v err=%v", sp, err)
	}
	if n := len(s.Trace()); n != 0 {
		t.Fatalf("obs-off run recorded %d spans", n)
	}
	if n := len(s.Events()); n != 0 {
		t.Fatalf("obs-off run recorded %d events", n)
	}
	m := s.Metrics()
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms) != 0 {
		t.Fatalf("obs-off run registered metrics: %+v", m)
	}
}
