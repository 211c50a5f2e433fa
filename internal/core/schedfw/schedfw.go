// Package schedfw is the scheduling framework driver: the batched,
// plugin-phased successor to the legacy single-sharePod KubeShare-Sched
// loop. Each cycle drains the pending queue into a batch, runs every unit
// through the fwk engine (pre-filter → filter → score → allocate → reserve)
// against a transactional view of the incremental snapshot, resolves
// intra-batch conflicts through the reservation journal, and commits the
// staged placements in bulk through the API server.
//
// The default configuration — the Algorithm 1 plugin set, batch size 1 —
// reproduces the legacy scheduler's placements, spans, events and counters
// exactly; batching and gang scheduling are opt-in extensions on the same
// pipeline.
package schedfw

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Framework-specific metric names (the shared scheduling families live in
// package core).
const (
	// MetricSchedConflicts counts intra-batch reservation conflicts: a unit
	// that found no capacity in a cycle where an earlier unit of the same
	// batch had already reserved some.
	MetricSchedConflicts = "kubeshare_sched_batch_conflicts_total"
	// MetricSchedGangAdmissions counts gangs admitted all-or-nothing.
	MetricSchedGangAdmissions = "kubeshare_sched_gang_admissions_total"
	// MetricSchedGangTimeouts counts gangs whose capacity hold expired.
	MetricSchedGangTimeouts = "kubeshare_sched_gang_timeouts_total"
	// metricPhasePrefix prefixes the per-phase run counters
	// (kubeshare_sched_phase_<phase>_runs_total).
	metricPhasePrefix = "kubeshare_sched_phase_"
)

// PhaseMetric returns the run-counter name for a fwk phase.
func PhaseMetric(phase string) string { return metricPhasePrefix + phase + "_runs_total" }

// Defaults for the framework knobs.
const (
	// DefaultBatchSize keeps the driver in compat mode: one placement per
	// cycle, exactly the legacy loop's pace.
	DefaultBatchSize = 1
	// DefaultGangTimeout bounds how long an incomplete gang may hold
	// reserved capacity against younger work.
	DefaultGangTimeout = 30 * time.Second
)

type options struct {
	cfg         core.SchedulerConfig
	batchSize   int
	gangTimeout time.Duration
	plugins     []fwk.Plugin
}

// Option configures the framework driver.
type Option func(*options)

// WithConfig seeds every knob a core.SchedulerConfig carries (cycle
// latency, overcommit factor, Decide override) in one option.
func WithConfig(cfg core.SchedulerConfig) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithCycleLatency sets the modelled per-cycle decision latency.
func WithCycleLatency(d time.Duration) Option {
	return func(o *options) { o.cfg.CycleLatency = d }
}

// WithMemOvercommit scales each device's schedulable gpu_mem capacity.
func WithMemOvercommit(f float64) Option {
	return func(o *options) { o.cfg.MemOvercommitFactor = f }
}

// WithDecide overrides the placement algorithm with a bare decide function
// (§4.6's pluggable-policy claim, legacy form). The function commits onto
// the pool directly, bypassing the reservation journal — gang rollback is
// unavailable under it. New policies should be expressed as plugins instead.
func WithDecide(fn func(core.Request, *core.Pool) core.Decision) Option {
	return func(o *options) { o.cfg.Decide = fn }
}

// WithBatchSize sets how many placements one cycle may stage. n <= 1 is
// compat mode; larger batches amortize the cycle latency and the pool
// materialization across n decisions.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithGangTimeout bounds an incomplete gang's capacity hold.
func WithGangTimeout(d time.Duration) Option {
	return func(o *options) { o.gangTimeout = d }
}

// WithPlugins replaces the default Algorithm 1 plugin set.
func WithPlugins(ps ...fwk.Plugin) Option {
	return func(o *options) { o.plugins = ps }
}

// Scheduler is the framework driver. It owns everything the plugins must
// not: the watch streams and incremental snapshot, the cycle clock, the
// batch transaction, gang holds, and the bulk commit path to the API server.
type Scheduler struct {
	env    *sim.Env
	srv    *apiserver.Server
	cfg    core.SchedulerConfig
	engine *fwk.Engine

	batchSize   int
	gangTimeout time.Duration

	snap   *core.Snapshot
	wake   *sim.Queue[struct{}]
	nextID int
	proc   *sim.Proc

	reflectors []*apiserver.Reflector
	watchProcs []*sim.Proc
	timerProcs []*sim.Proc

	gangs map[string]*gangState
	// timerDeadline is the earliest armed gang-timeout wake ( 0 = none).
	timerDeadline time.Duration
	// epoch is the apiserver restart epoch the cross-cycle state was built
	// in; a mismatch before a cycle invalidates gang holds (see checkEpoch).
	epoch int64

	tracer       *obs.Tracer
	recorder     *obs.Recorder
	decisions    *obs.Counter
	requeues     *obs.Counter
	noCapacity   *obs.Counter
	depth        *obs.Gauge
	schedHist    *obs.Histogram
	conflicts    *obs.Counter
	gangAdmitted *obs.Counter
	gangTimeouts *obs.Counter
	phaseRuns    map[string]*obs.Counter
}

// New creates the framework driver; Start launches it. With no options it
// is the legacy scheduler, re-expressed: Algorithm 1 as the default plugin
// set, batch size 1, identical watch wiring, counters, spans and events.
func New(env *sim.Env, srv *apiserver.Server, opts ...Option) *Scheduler {
	o := options{batchSize: DefaultBatchSize, gangTimeout: DefaultGangTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfg.CycleLatency == 0 {
		o.cfg.CycleLatency = core.DefaultCycleLatency
	}
	if o.batchSize < 1 {
		o.batchSize = 1
	}
	if o.plugins == nil {
		o.plugins = plugins.Default()
	}
	rt := srv.Obs()
	s := &Scheduler{
		env:          env,
		srv:          srv,
		cfg:          o.cfg,
		engine:       fwk.NewEngine(o.plugins),
		batchSize:    o.batchSize,
		gangTimeout:  o.gangTimeout,
		snap:         core.NewSnapshot(o.cfg.MemOvercommitFactor),
		wake:         sim.NewQueue[struct{}](env),
		gangs:        make(map[string]*gangState),
		tracer:       rt.Tracer(),
		recorder:     rt.EventSource("kubeshare-sched"),
		decisions:    rt.Counter(core.MetricSchedDecisions),
		requeues:     rt.Counter(core.MetricSchedRequeues),
		noCapacity:   rt.Counter(core.MetricSchedNoCapacity),
		depth:        rt.Gauge(core.MetricSchedPending),
		schedHist:    rt.Histogram(core.MetricSchedLatency),
		conflicts:    rt.Counter(MetricSchedConflicts),
		gangAdmitted: rt.Counter(MetricSchedGangAdmissions),
		gangTimeouts: rt.Counter(MetricSchedGangTimeouts),
		phaseRuns:    make(map[string]*obs.Counter, len(fwk.Phases)),
	}
	for _, ph := range fwk.Phases {
		s.phaseRuns[ph] = rt.Counter(PhaseMetric(ph))
	}
	s.engine.SetPhaseHook(func(ph string) { s.phaseRuns[ph].Inc() })
	return s
}

// Stats implements core.Sched.
func (s *Scheduler) Stats() core.SchedStats { return core.ReadSchedStats(s.srv.Obs()) }

// VerifySnapshot implements core.Sched: the incremental snapshot must
// materialize exactly the pool a full relist would build.
func (s *Scheduler) VerifySnapshot() error {
	return core.DiffPools(s.snap.NewPool(nil), core.BuildPoolWithFactor(s.srv, nil, s.cfg.MemOvercommitFactor))
}

// Start launches the watch and scheduling loops — the same four replayed
// reflector streams the legacy scheduler ran, feeding the same snapshot.
func (s *Scheduler) Start() {
	s.epoch = s.srv.Epoch()
	for _, kind := range []string{core.KindSharePod, "Pod", core.KindVGPU, "Node"} {
		r := s.srv.NewNamedReflector("kubeshare-sched", kind, apiserver.WatchOptions{Replay: true})
		s.reflectors = append(s.reflectors, r)
		isPod := kind == "Pod"
		s.watchProcs = append(s.watchProcs, s.env.Go("kubeshare-sched-watch-"+kind, func(p *sim.Proc) {
			for {
				ev, ok := r.Get(p)
				if !ok {
					return
				}
				s.snap.Apply(ev)
				if isPod && ev.Type == store.Deleted {
					s.onPodDeleted(ev.Object.(*api.Pod))
				}
				s.kick()
			}
		}))
	}
	s.proc = s.env.Go("kubeshare-sched", s.loop)
}

// Stop terminates the scheduler.
func (s *Scheduler) Stop() {
	if s.proc != nil {
		s.proc.Kill(nil)
	}
	for _, p := range s.watchProcs {
		p.Kill(nil)
	}
	for _, p := range s.timerProcs {
		if !p.Finished() {
			p.Kill(nil)
		}
	}
	for _, r := range s.reflectors {
		r.Stop()
	}
}

// onPodDeleted requeues a sharePod whose bound pod vanished while the
// sharePod itself is still live (node eviction, kubelet restart, vGPU
// loss) — identical to the legacy recovery edge.
func (s *Scheduler) onPodDeleted(pod *api.Pod) {
	spName := pod.Labels[core.LabelSharePod]
	if spName == "" {
		return
	}
	sp, err := core.SharePods(s.srv).Get(spName)
	if err != nil || sp.Status.BoundPod != pod.Name {
		return // gone, or the deletion is a stale predecessor's
	}
	updated := core.RequeueSharePod(s.srv, spName)
	if updated == nil {
		return
	}
	s.requeues.Inc()
	s.tracer.Mark("kubeshare-sched", "requeue", api.Key(updated), "lost pod "+pod.Name)
	s.recorder.Eventf(core.KindSharePod, spName, obs.EventWarning, "Requeued",
		"bound pod %s lost; rescheduling", pod.Name)
	s.snap.Apply(store.Event{Type: store.Modified, Object: updated})
}

func (s *Scheduler) kick() {
	if s.wake.Len() == 0 {
		s.wake.Put(struct{}{})
	}
}

// loop coalesces wakeups: a burst of watch deliveries in one sim instant
// triggers one cycle, not one per delivery. After the first kick the loop
// yields so every same-instant watch proc lands its delta in the snapshot,
// then drains the redundant kicks those deliveries queued.
func (s *Scheduler) loop(p *sim.Proc) {
	for {
		if _, ok := s.wake.Get(p); !ok {
			return
		}
		p.Yield()
		s.drainWake()
		s.checkEpoch()
		for s.runCycle(p) {
		}
	}
}

// checkEpoch invalidates cross-cycle scheduler state after an apiserver
// restart. Per-cycle reservations die with their transaction, but gang
// holds persist in s.gangs — and their hold windows were armed against
// watch state that no longer exists. Dropping them requeues the gangs
// cleanly: members are still pending in the (relist-rebuilt) snapshot, so
// the next cycle re-attempts admission and re-arms fresh holds.
func (s *Scheduler) checkEpoch() {
	e := s.srv.Epoch()
	if e == s.epoch {
		return
	}
	s.epoch = e
	for g := range s.gangs {
		delete(s.gangs, g)
	}
}

func (s *Scheduler) drainWake() {
	for {
		if _, ok := s.wake.TryGet(); !ok {
			return
		}
	}
}

// staged is one decision awaiting the cycle's bulk commit.
type staged struct {
	name    string
	key     string
	created time.Duration
	dec     core.Decision
}

// runCycle runs one scheduling cycle: drain the pending set, sort by age,
// decide units against the cycle transaction until the batch is full, then
// commit the staged decisions in bulk. It reports whether any unit
// progressed (was staged); all-NoCapacity means wait for a cluster change.
func (s *Scheduler) runCycle(p *sim.Proc) bool {
	pending := s.snap.Pending()
	s.depth.Set(int64(len(pending)))
	if len(pending) == 0 {
		return false
	}
	core.SortByAge(pending)
	cycleStart := s.env.Now()
	p.Sleep(s.cfg.CycleLatency)
	// The watch procs drained any deltas during the sleep; the snapshot is
	// current as of now. One pool materialization serves the whole batch.
	txn := fwk.NewTxn(s.snap.NewPool(s.newGPUID))

	var out []staged
	progressed := s.stage(pending, txn, &out)

	if s.batchSize > 1 {
		s.tracer.Record("kubeshare-sched", "batch",
			fmt.Sprintf("cycle/%d", len(pending)),
			fmt.Sprintf("staged=%d journal=%d", len(out), txn.Len()), cycleStart)
	}
	for _, st := range out {
		s.commit(st, cycleStart)
	}
	if progressed == 0 {
		s.noCapacity.Inc()
		return false
	}
	return true
}

// stage decides units one at a time, in age order, against the live
// transaction until the batch is full — with batch size 1, exactly the
// legacy pace and placements.
func (s *Scheduler) stage(pending []*core.SharePod, txn *fwk.Txn, out *[]staged) int {
	progressed := 0
	seenGang := map[string]bool{}
	for _, cand := range pending {
		if progressed >= s.batchSize {
			break
		}
		sp, err := core.SharePods(s.srv).Get(cand.Name)
		if err != nil || sp.Placed() || sp.Terminated() {
			continue
		}
		if g := gangOf(sp); g != "" {
			if seenGang[g] {
				continue
			}
			seenGang[g] = true
			progressed += s.scheduleGang(g, pending, txn, out)
			continue
		}
		dec := s.decideOne(unitOf(sp), txn)
		s.decisions.Inc()
		switch dec.Outcome {
		case core.Assigned, core.NewDevice, core.Rejected:
			*out = append(*out, staged{name: sp.Name, key: api.Key(sp), created: sp.CreationTime, dec: dec})
			progressed++
		default: // NoCapacity: the unit stays pending for the next cycle.
			if txn.Len() > 0 {
				s.conflicts.Inc()
			}
		}
	}
	return progressed
}

// decideOne routes a unit through the engine, or through the legacy Decide
// override when one is configured (which commits onto the pool directly,
// outside the reservation journal).
func (s *Scheduler) decideOne(u fwk.Unit, txn *fwk.Txn) core.Decision {
	if s.cfg.Decide != nil {
		return s.cfg.Decide(u.Req, txn.Pool())
	}
	return s.engine.Schedule(u, txn)
}

// commit applies one staged decision through the API server, emitting the
// same span / event / histogram telemetry the legacy loop did, and writes
// the result through into the snapshot.
func (s *Scheduler) commit(st staged, cycleStart time.Duration) {
	if st.dec.Outcome == core.Rejected {
		s.tracer.Record("kubeshare-sched", "reject", st.key, st.dec.Reason, cycleStart)
		s.recorder.Eventf(core.KindSharePod, st.name, obs.EventWarning, "Unschedulable", "%s", st.dec.Reason)
		s.applyRejection(st.name, st.dec.Reason)
		return
	}
	id := s.tracer.Record("kubeshare-sched", "schedule", st.key,
		fmt.Sprintf("gpuid=%s node=%s", st.dec.GPUID, st.dec.NodeName), cycleStart)
	s.schedHist.ObserveDurationExemplar(s.env.Now()-st.created, st.key, id)
	s.applyPlacement(st.name, st.dec)
}

// applyPlacement commits a placement: the GPUID/NodeName assignment through
// the spec, the phase transition through the status subresource, written
// through into the snapshot immediately so back-to-back cycles cannot
// double-book residuals.
func (s *Scheduler) applyPlacement(name string, dec core.Decision) {
	sps := core.SharePods(s.srv)
	if _, err := sps.Mutate(name, func(cur *core.SharePod) error {
		cur.Spec.GPUID = dec.GPUID
		cur.Spec.NodeName = dec.NodeName
		return nil
	}); err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update %s: %v", name, err))
	}
	updated, err := sps.MutateStatus(name, func(cur *core.SharePod) error {
		cur.Status.Phase = core.SharePodScheduled
		cur.Status.ScheduledTime = s.env.Now()
		return nil
	})
	if err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update status %s: %v", name, err))
	}
	s.snap.Apply(store.Event{Type: store.Modified, Object: updated})
}

// applyRejection marks a sharePod's locality constraints unsatisfiable.
func (s *Scheduler) applyRejection(name, reason string) {
	updated, err := core.SharePods(s.srv).MutateStatus(name, func(cur *core.SharePod) error {
		cur.Status.Phase = core.SharePodRejected
		cur.Status.Message = reason
		cur.Status.FinishTime = s.env.Now()
		return nil
	})
	if err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update status %s: %v", name, err))
	}
	s.snap.Apply(store.Event{Type: store.Modified, Object: updated})
}

// unitOf converts a sharePod into its framework scheduling view.
func unitOf(sp *core.SharePod) fwk.Unit {
	return fwk.Unit{
		Name:     sp.Name,
		Created:  sp.CreationTime,
		Req:      core.RequestOf(sp),
		Gang:     sp.Spec.Gang,
		GangSize: sp.Spec.GangSize,
	}
}

// gangOf returns the sharePod's active gang. Gang semantics gate initial
// admission only: a recovered member (Restarts > 0) reschedules solo, since
// its peers already hold their placements.
func gangOf(sp *core.SharePod) string {
	if sp.Status.Restarts > 0 {
		return ""
	}
	return sp.Spec.Gang
}

// newGPUID generates a fresh vGPU identifier — same series as the legacy
// scheduler, so placements and logs stay comparable.
func (s *Scheduler) newGPUID() string {
	s.nextID++
	return fmt.Sprintf("vgpu-%04d", s.nextID)
}
