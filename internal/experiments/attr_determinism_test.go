package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/obs/attr"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// TestAttributionSumExact is the exact-sum property over real runs: for
// several seeds — including chaos runs that crash/restart the apiserver
// mid-workload — every completed sharePod's phase breakdown sums to its
// end-to-end latency exactly (not within a tolerance), and every
// submitted sharePod is accounted for as either a breakdown or an open
// chain.
func TestAttributionSumExact(t *testing.T) {
	type arm struct {
		seed    int64
		restart time.Duration
	}
	arms := []arm{
		{seed: 1}, {seed: 2}, {seed: 3},
		{seed: 11, restart: 9 * time.Second},
		{seed: 17, restart: 6 * time.Second},
	}
	_, err := runIndexed(len(arms), func(i int) (struct{}, error) {
		a := arms[i]
		jobs := workload.Generate(workload.GeneratorConfig{
			Jobs: 10, MeanInterArrival: 2 * time.Second,
			DemandMean: 0.35, DemandVar: 1,
			JobDuration: 10 * time.Second, Seed: a.seed,
		})
		res, err := RunSharing(SharingConfig{
			System: KubeShare, Nodes: 1, GPUsPerNode: 2,
			Jobs: jobs, Attribution: true,
			RestartAPIServerAt: a.restart,
		})
		if err != nil {
			return struct{}{}, err
		}
		if len(res.Attr.Breakdowns) == 0 {
			return struct{}{}, fmt.Errorf("seed %d: no completed chains", a.seed)
		}
		if got := len(res.Attr.Breakdowns) + len(res.Attr.Open); got != len(jobs) {
			return struct{}{}, fmt.Errorf("seed %d: %d chains accounted for, %d jobs submitted",
				a.seed, got, len(jobs))
		}
		for _, bd := range res.Attr.Breakdowns {
			if bd.Sum() != bd.EndToEnd {
				return struct{}{}, fmt.Errorf("seed %d: %s phases sum to %v, end-to-end %v (diff %v)",
					a.seed, bd.Key, bd.Sum(), bd.EndToEnd, bd.EndToEnd-bd.Sum())
			}
			for ph, d := range bd.Phases {
				if d < 0 {
					return struct{}{}, fmt.Errorf("seed %d: %s negative phase %s=%v",
						a.seed, bd.Key, ph, d)
				}
			}
		}
		if v := res.Obs.Gauge("kubeshare_obs_open_chains"); v != int64(len(res.Attr.Open)) {
			return struct{}{}, fmt.Errorf("seed %d: kubeshare_obs_open_chains=%d, want %d",
				a.seed, v, len(res.Attr.Open))
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAttributionRetry drives the requeue edge directly: a bound pod is
// deleted mid-run, the scheduler requeues the sharePod, and the second
// attempt runs to completion. The victim's breakdown must attribute the
// lost first attempt to the retry phase — not inflate schedule — and
// still sum exactly.
func TestAttributionRetry(t *testing.T) {
	env := sim.NewEnv()
	c, err := newCluster(env, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Obs.EnableExemplars()
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		t.Fatal(err)
	}
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 4, MeanInterArrival: time.Second,
		DemandMean: 0.3, JobDuration: 8 * time.Second, Seed: 5,
	})
	env.Go("submitter", func(p *sim.Proc) {
		for _, j := range jobs {
			if wait := j.Arrival - env.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if _, err := core.SharePods(c.API).Create(workload.SharePodFor(j)); err != nil {
				panic(err)
			}
		}
	})
	victim := ""
	env.Go("pod-killer", func(p *sim.Proc) {
		// Wait until some sharePod is bound and running, then delete its
		// bound pod — the node-eviction edge the scheduler requeues on.
		for victim == "" {
			p.Sleep(4 * time.Second)
			for _, sp := range core.SharePods(c.API).List() {
				if sp.Status.BoundPod != "" && !sp.Terminated() {
					victim = sp.Name
					if err := c.Pods().Delete(sp.Status.BoundPod); err != nil {
						panic(err)
					}
					break
				}
			}
		}
	})
	env.Run()
	if victim == "" {
		t.Fatal("no bound sharePod ever appeared to evict")
	}
	res := attr.Analyze(c.Obs.Tracer().Spans())
	var bd *attr.Breakdown
	for i := range res.Breakdowns {
		if res.Breakdowns[i].Key == "SharePod/"+victim {
			bd = &res.Breakdowns[i]
		}
	}
	if bd == nil {
		t.Fatalf("victim %s has no breakdown (open: %v)", victim, res.Open)
	}
	if bd.Retries == 0 || bd.Phases[attr.PhaseRetry] <= 0 {
		t.Fatalf("victim %s: retries=%d retry=%v, want a positive retry attribution",
			victim, bd.Retries, bd.Phases[attr.PhaseRetry])
	}
	if bd.Sum() != bd.EndToEnd {
		t.Fatalf("victim %s: sum %v != end-to-end %v", victim, bd.Sum(), bd.EndToEnd)
	}
}

// TestFig19ConcurrentDeterminism renders the attribution table five times
// concurrently: every rendering must be byte-identical, and the table
// matches the recorded golden.
func TestFig19ConcurrentDeterminism(t *testing.T) {
	dumps, err := runIndexed(5, func(int) (string, error) {
		tb, err := Fig19(Fig18Config{
			Nodes: 1, GPUsPerNode: 4, Jobs: 16,
			JobDuration: 10 * time.Second,
		})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		tb.Render(&b)
		return b.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dumps[1:] {
		if d != dumps[0] {
			t.Fatalf("fig19 table %d diverged from table 0", i+1)
		}
	}
	checkGolden(t, "fig19_table.golden", dumps[0])
}
