package main

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	kruntime "kubeshare/internal/kube/runtime"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// A buildFunc sets up one repetition of a workload from the seed: the
// cluster, KubeShare, the generated inputs and the procs that submit
// them. Nothing runs until the rig's env does.
type buildFunc func(seed int64, tr *tracer) (*rig, error)

var workloads = map[string]buildFunc{
	"serve-token":       buildServeToken,
	"sched-backlog":     buildSchedBacklog,
	"lifecycle-restart": buildLifecycleRestart,
}

// serve-token: the Fig 8/9 inference mix on the paper's 8 × 4 testbed with
// the default token strategy, 5 ms request kernels and arrivals fast
// enough that sharePods queue for capacity.
const (
	serveNodes        = 8
	serveGPUs         = 4
	serveJobs         = 320
	serveInterArrival = 50 * time.Millisecond
	serveJobDuration  = 5 * time.Second
	serveKernelMS     = 5
)

// sched-backlog: the fig16 churn shape on a 128 × 8 pool without kubelets
// or devices. Two 0.45 shares fit a device, so the pool retires
// 2·devices/service sharePods per second; waves arrive at that mean rate
// with seeded sizes, keeping a bounded backlog that every cycle re-decides.
const (
	backlogNodes     = 128
	backlogGPUs      = 8
	backlogSharePods = 3000
	backlogBatch     = 256
	backlogService   = 4 * time.Second
	backlogSweep     = backlogService / 16
	backlogShare     = 0.45
)

// lifecycle-restart: short sharePods through the whole create → schedule →
// bind → holder pod → kubelet → run → teardown path, with a few 50 ms
// kernels each, on a durable apiserver that crash-restarts once in every
// lifeRestartMean slot and has its WAL tail torn before every third
// restart.
const (
	lifeNodes         = 4
	lifeGPUs          = 4
	lifeJobs          = 1000
	lifeInterArrival  = 250 * time.Millisecond
	lifeJobDuration   = 300 * time.Millisecond
	lifeKernelMS      = 50
	lifeCheckpoint    = 5 * time.Second
	lifeRestartMean   = 20 * time.Second
	lifeTornTailEvery = 3
)

// rig is one built repetition.
type rig struct {
	env *sim.Env
	srv *apiserver.Server
	img *image // nil when no container runs
	tr  *tracer

	// latency is the stem of the modelled latency the workload reports
	// (model_req, model_queue or model_startup).
	latency string

	submitted  []workload.Job
	attempted  int
	createErrs int
	restarts   int
	replayed   int
	// quiescence runs the workload's end-of-run invariant check.
	quiescence func() error
}

func newCluster(env *sim.Env, nodes, gpus int) (*kube.Cluster, error) {
	cfg := kube.Config{}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, kube.NodeConfig{Name: fmt.Sprintf("node-%d", i), GPUs: gpus})
	}
	return kube.NewCluster(env, cfg)
}

func buildServeToken(seed int64, tr *tracer) (*rig, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, serveNodes, serveGPUs)
	if err != nil {
		return nil, err
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return nil, err
	}
	r := &rig{env: env, srv: c.API, img: newImage(), tr: tr, latency: "model_req"}
	c.Images.Register(imageName, r.img.serve)
	r.submit(workload.Generate(workload.GeneratorConfig{
		Jobs:             serveJobs,
		MeanInterArrival: serveInterArrival,
		DemandMean:       0.3,
		DemandVar:        2,
		JobDuration:      serveJobDuration,
		ReqKernelMS:      serveKernelMS,
		Seed:             seed,
	}))
	r.quiescence = func() error { return errors.Join(chaos.VerifyQuiescence(c, ks)...) }
	return r, nil
}

func buildLifecycleRestart(seed int64, tr *tracer) (*rig, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, lifeNodes, lifeGPUs)
	if err != nil {
		return nil, err
	}
	// Durability goes on before any consumer subscribes, so the
	// enable-time checkpoint plus the WAL cover the whole run.
	c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: lifeCheckpoint})
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return nil, err
	}
	r := &rig{env: env, srv: c.API, img: newImage(), tr: tr, latency: "model_startup"}
	c.Images.Register(imageName, r.img.serve)
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             lifeJobs,
		MeanInterArrival: lifeInterArrival,
		DemandMean:       0.3,
		DemandVar:        1,
		JobDuration:      lifeJobDuration,
		ReqKernelMS:      lifeKernelMS,
		Seed:             seed,
	})
	// Arrivals stay Poisson but are stretched to end exactly at the window,
	// so the virtual horizon, and with it the checkpoint and restart work,
	// does not depend on the seed.
	window := lifeJobs * lifeInterArrival
	stretch := float64(window) / float64(jobs[len(jobs)-1].Arrival)
	for i := range jobs {
		jobs[i].Arrival = time.Duration(float64(jobs[i].Arrival) * stretch)
	}
	r.submit(jobs)
	// One restart at a seeded instant in each lifeRestartMean slot of the
	// window: a fixed restart count keeps the host cost of a repetition
	// independent of the seed.
	rng := simrand.New(seed).Fork("restarts")
	var restarts []time.Duration
	for t := time.Duration(0); t+lifeRestartMean <= window; t += lifeRestartMean {
		restarts = append(restarts, t+time.Duration(rng.Float64()*float64(lifeRestartMean)))
	}
	env.Go("perfbench-restarter", func(p *sim.Proc) {
		for i, at := range restarts {
			p.Sleep(at - env.Now())
			torn := (i+1)%lifeTornTailEvery == 0 && c.API.TearWALTail(rng.Intn(5))
			id := tr.call("Restart")
			st, err := c.API.Restart()
			tr.end(id)
			if err != nil {
				panic(fmt.Sprintf("perfbench: apiserver restart: %v", err))
			}
			r.restarts++
			r.replayed += st.Replayed
			if torn {
				r.resubmitLost()
			}
		}
	})
	r.quiescence = func() error { return errors.Join(chaos.VerifyQuiescence(c, ks)...) }
	return r, nil
}

func buildSchedBacklog(seed int64, tr *tracer) (*rig, error) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	nodes := apiserver.Nodes(srv)
	for i := 0; i < backlogNodes; i++ {
		gpus := api.ResourceList{api.ResourceGPU: backlogGPUs}
		if _, err := nodes.Create(&api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%04d", i)},
			Status:     api.NodeStatus{Capacity: gpus, Allocatable: gpus, Ready: true},
		}); err != nil {
			return nil, err
		}
	}
	r := &rig{env: env, srv: srv, tr: tr, latency: "model_queue"}
	sched := schedfw.New(env, srv, schedfw.WithBatchSize(backlogBatch))

	// Waves of wave sharePods every service/8, the pool's drain rate; a
	// wave's sharePods arrive at seeded instants spread over its interval.
	wave := 2 * backlogNodes * backlogGPUs / 8
	gap := backlogService / 8
	rng := simrand.New(seed).Fork("waves")
	arrivals := make([]time.Duration, backlogSharePods)
	for i := range arrivals {
		arrivals[i] = time.Duration(i/wave)*gap + time.Duration(rng.Float64()*float64(gap))
	}
	for w := 0; w < len(arrivals); w += wave {
		slices.Sort(arrivals[w:min(w+wave, len(arrivals))])
	}
	sharePods := core.SharePods(srv)
	env.Go("perfbench-submitter", func(p *sim.Proc) {
		for i, at := range arrivals {
			if wait := at - env.Now(); wait > 0 {
				p.Sleep(wait)
			}
			r.create(sharePods, &core.SharePod{
				ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%06d", i)},
				Spec: core.SharePodSpec{
					GPURequest: backlogShare, GPULimit: 1, GPUMem: workload.MemShareChurn,
					Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "none"}}},
				},
			})
		}
	})
	// The completion sweeper retires placed sharePods one service time
	// after scheduling; the status write reaches the scheduler through its
	// watch and frees the slice for later waves.
	env.Go("perfbench-sweeper", func(p *sim.Proc) {
		for done := 0; done < backlogSharePods; {
			p.Sleep(backlogSweep)
			cutoff := env.Now() - backlogService
			var expired []string
			id := tr.call("Scan")
			sharePods.Scan(func(sp *core.SharePod) bool {
				if sp.Placed() && !sp.Terminated() && sp.Status.ScheduledTime <= cutoff {
					expired = append(expired, sp.Name)
				}
				return true
			})
			tr.end(id)
			for _, name := range expired {
				id := tr.call("MutateStatus")
				_, err := sharePods.MutateStatus(name, func(sp *core.SharePod) error {
					sp.Status.Phase = core.SharePodSucceeded
					sp.Status.FinishTime = env.Now()
					return nil
				})
				tr.end(id)
				if err != nil {
					panic(fmt.Sprintf("perfbench: complete %s: %v", name, err))
				}
				done++
			}
		}
	})
	sched.Start()
	r.quiescence = sched.VerifySnapshot
	return r, nil
}

// submit creates each job's sharePod at its arrival time, running the
// benchmark's own image.
func (r *rig) submit(jobs []workload.Job) {
	r.env.Go("perfbench-submitter", func(p *sim.Proc) {
		for _, j := range jobs {
			if wait := j.Arrival - p.Env().Now(); wait > 0 {
				p.Sleep(wait)
			}
			r.submitted = append(r.submitted, j)
			r.create(core.SharePods(r.srv), sharePodFor(j))
		}
	})
}

func sharePodFor(j workload.Job) *core.SharePod {
	sp := workload.SharePodFor(j)
	c := &sp.Spec.Pod.Containers[0]
	c.Image = imageName
	c.Env[envSharePod] = j.Name
	return sp
}

// resubmitLost re-creates submitted sharePods that a torn WAL tail
// reverted out of existence, as a client whose write was lost would. The
// retry is not a new attempt.
func (r *rig) resubmitLost() {
	sharePods := core.SharePods(r.srv)
	exists := make(map[string]bool, len(r.submitted))
	id := r.tr.call("Scan")
	sharePods.Scan(func(sp *core.SharePod) bool {
		exists[sp.Name] = true
		return true
	})
	r.tr.end(id)
	for _, j := range r.submitted {
		if !exists[j.Name] {
			r.create(sharePods, sharePodFor(j))
			r.attempted--
		}
	}
}

func (r *rig) create(client apiserver.Client[*core.SharePod], sp *core.SharePod) {
	id := r.tr.call("Create")
	_, err := client.Create(sp)
	r.tr.end(id)
	r.attempted++
	if err != nil {
		r.createErrs++
	}
}

// The benchmark's serving image: the TF-Serving request loop of the
// workload package (same environment variables, same seeded Poisson
// arrivals), instrumented with the virtual timings only the container can
// see.
const (
	imageName   = "perfbench/serve"
	envSharePod = "PERFBENCH_SHAREPOD"
)

type image struct {
	// start is each sharePod's first entrypoint start (virtual time).
	start map[string]time.Duration
	// req and wait are per request, in virtual ms: arrival → kernel done,
	// and LaunchKernel call → kernel start.
	req, wait []float64
	launches  int64
}

func newImage() *image { return &image{start: make(map[string]time.Duration)} }

func (m *image) serve(ctx *kruntime.Ctx) error {
	p := ctx.Proc
	env := p.Env()
	if name := ctx.Env[envSharePod]; name != "" {
		if _, seen := m.start[name]; !seen {
			m.start[name] = env.Now()
		}
	}
	if ctx.CUDA == nil {
		return errors.New("perfbench: no GPU visible")
	}
	rate, err1 := strconv.ParseFloat(ctx.Env[workload.EnvRate], 64)
	kernelMS, err2 := strconv.Atoi(ctx.Env[workload.EnvReqKernel])
	durS, err3 := strconv.ParseFloat(ctx.Env[workload.EnvDuration], 64)
	modelMB, err4 := strconv.ParseInt(ctx.Env[workload.EnvModelMB], 10, 64)
	seed, err5 := strconv.ParseInt(ctx.Env[workload.EnvSeed], 10, 64)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return fmt.Errorf("perfbench: bad serving env: %w", err)
	}
	if _, err := ctx.CUDA.MemAlloc(p, modelMB<<20); err != nil {
		return err
	}
	if err := ctx.CUDA.MemcpyHtoD(p, modelMB<<20); err != nil {
		return err
	}
	kernel := time.Duration(kernelMS) * time.Millisecond
	deadline := env.Now() + time.Duration(durS*float64(time.Second))
	meanGap := time.Duration(float64(time.Second) / rate)
	rng := simrand.New(seed)
	for next := env.Now() + rng.ExpDuration(meanGap); next < deadline; next += rng.ExpDuration(meanGap) {
		if wait := next - env.Now(); wait > 0 {
			p.Sleep(wait)
		}
		called := env.Now()
		if err := ctx.CUDA.LaunchKernel(p, kernel); err != nil {
			return err
		}
		done := env.Now()
		m.launches++
		m.req = append(m.req, ms(done-next))
		// Under the token a kernel runs alone at full speed, so it started
		// exactly one kernel length before it completed.
		m.wait = append(m.wait, ms(max(done-called-kernel, 0)))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
