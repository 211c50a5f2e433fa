package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Fig11Config drives the scheduling-time experiment: how long one
// KubeShare-Sched decision takes as a function of the number of SharePods
// already in the system. Unlike every other experiment this measures *real*
// CPU time of the actual implementation (the paper's O(N) claim); the
// repository benchmark BenchmarkFig11SchedulingTime measures the same path
// under testing.B.
type Fig11Config struct {
	// Counts are the existing-SharePod counts to sweep.
	Counts []int
	// Iterations per point (the decision is fast; average many).
	Iterations int
	// Now returns wall-clock time; injectable for tests.
	Now func() time.Time
}

func (c Fig11Config) withDefaults() Fig11Config {
	if len(c.Counts) == 0 {
		c.Counts = []int{10, 25, 50, 75, 100, 200}
	}
	if c.Iterations == 0 {
		c.Iterations = 200
	}
	if c.Now == nil {
		c.Now = time.Now //det:allow — injectable; this micro-benchmark measures real CPU cost, not sim time
	}
	return c
}

// PopulateSchedulingState fills an API server with n placed sharePods
// spread over enough vGPUs, returning the server (shared with the
// benchmark harness).
func PopulateSchedulingState(n int) *apiserver.Server {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	nodes := n/8 + 1
	for i := 0; i < nodes; i++ {
		node := &api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			Status: api.NodeStatus{
				Capacity:    api.ResourceList{api.ResourceGPU: 4},
				Allocatable: api.ResourceList{api.ResourceGPU: 4},
				Ready:       true,
			},
		}
		if _, err := apiserver.Nodes(srv).Create(node); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("node-%d", i%nodes)
		gpuID := fmt.Sprintf("vgpu-%03d", i%(nodes*4))
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%04d", i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.2, GPULimit: 0.3, GPUMem: workload.MemShareSmall,
				GPUID: gpuID, NodeName: node,
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
			Status: core.SharePodStatus{Phase: core.SharePodRunning},
		}
		if _, err := core.SharePods(srv).Create(sp); err != nil {
			panic(err)
		}
	}
	return srv
}

// fig11Unit is the probe sharePod every timed decision places.
var fig11Unit = fwk.Unit{Name: "fig11-probe", Req: core.Request{Util: 0.3, Mem: 0.2}}

// decideOnce runs one decision through the scheduling framework's engine
// with the default Algorithm 1 plugin set — the code path that places pods
// in the running cluster.
func decideOnce(pool *core.Pool) core.Decision {
	return fwk.NewEngine(plugins.Default()).Schedule(fig11Unit, fwk.NewTxn(pool))
}

// ScheduleOnce performs one full scheduling decision (pool build +
// Algorithm 1) against the populated state — the unit Fig 11 times.
func ScheduleOnce(srv *apiserver.Server) core.Decision {
	serial := 0
	return decideOnce(core.BuildPool(srv, func() string {
		serial++
		return fmt.Sprintf("fresh-%d", serial)
	}))
}

// PopulateSnapshot folds the server's current state into an incremental
// scheduler snapshot by draining replay watches — the steady-state view
// KubeShare-Sched maintains from deltas instead of rebuilding per decision.
func PopulateSnapshot(srv *apiserver.Server) *core.Snapshot {
	snap := core.NewSnapshot(1)
	for _, kind := range []string{core.KindSharePod, core.KindVGPU, "Pod", "Node"} {
		q := srv.Watch(kind, true)
		for {
			ev, ok := q.TryGet()
			if !ok {
				break
			}
			snap.Apply(ev)
		}
		srv.StopWatch(q)
	}
	return snap
}

// ScheduleOnceIncremental performs one scheduling decision from the
// maintained snapshot (pool materialization + Algorithm 1) — the
// incremental counterpart of ScheduleOnce.
func ScheduleOnceIncremental(snap *core.Snapshot) core.Decision {
	serial := 0
	return decideOnce(snap.NewPool(func() string {
		serial++
		return fmt.Sprintf("fresh-%d", serial)
	}))
}

// Fig11 sweeps the SharePod count and reports mean decision time. The
// paper's shape: linear in N and comfortably under 400 ms at N=100.
func Fig11(cfg Fig11Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 11: KubeShare-Sched decision time vs #SharePods",
		"sharepods", "mean_decision_us")
	for _, n := range cfg.Counts {
		srv := PopulateSchedulingState(n)
		start := cfg.Now()
		for i := 0; i < cfg.Iterations; i++ {
			ScheduleOnce(srv)
		}
		elapsed := cfg.Now().Sub(start)
		tb.AddRow(n, float64(elapsed.Microseconds())/float64(cfg.Iterations))
	}
	return tb, nil
}
