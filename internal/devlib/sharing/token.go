package sharing

import (
	"fmt"
	"sort"
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// ResidualPolicy selects step 3 of the token scheduling policy.
type ResidualPolicy int

// Residual distribution policies.
const (
	// LowestUsageFirst is the paper's choice: the spare capacity goes to
	// the client with the lowest sliding-window usage, equalizing shares.
	LowestUsageFirst ResidualPolicy = iota
	// FIFOResidual grants the longest-waiting request instead — simpler,
	// but lets a fast re-requester starve slower tenants of the residual.
	FIFOResidual
)

// Token is the paper's token time-slicing strategy (§4.5): one device-wide
// token, held exclusively for at most a quota, scheduled among the
// registered clients by sliding-window usage. It guarantees each client's
// gpu_request (minimum usage share), caps it at gpu_limit (maximum share),
// and elastically distributes residual capacity per the ResidualPolicy.
type Token struct {
	env      *sim.Env
	uuid     string
	quota    time.Duration
	window   time.Duration
	residual ResidualPolicy
	clients  map[string]*tclient
	queue    []*tclient // FIFO of clients with pending admits
	holder   *tclient
	grant    time.Duration // when the current holder received the token
	seq      uint64
	expiry   sim.Timer
	retry    sim.Timer
	handoffs int64
	// swap is the optional memory over-commitment broker (see swap.go).
	swap *swapState
	// retryFn/expireFn are the timer callbacks, bound once; scheduling a
	// method value directly would allocate a closure per (re)arm.
	retryFn  func()
	expireFn func()
	// down marks the strategy suspended (its vGPU pod died); see Suspend.
	down bool

	// Telemetry handles (no-ops when the runtime is nil). grants/throttles/
	// waitHist are this device's children of the gpu_uuid-labeled families;
	// holdVec is kept as the family because its second label (tenant) varies
	// per client.
	recorder  *obs.Recorder
	grants    *obs.Counter
	admits    *obs.Counter // kubeshare_sharing_admits_total{strategy="token"} child
	throttles *obs.Counter
	waitHist  *obs.Histogram
	holdVec   *obs.CounterVec
}

// tclient is the token strategy's view of one container on the device.
type tclient struct {
	id       string
	tenant   string  // owning sharePod name; defaults to id until SetTenant
	waitKey  string  // "SharePod/"+tenant, the token-wait exemplar's chain key
	request  float64 // guaranteed minimum usage share (gpu_request)
	limit    float64 // maximum usage share (gpu_limit)
	window   *metrics.UsageWindow
	queued   *sim.Event // pending admit, nil when none
	admit    *sim.Event // cached admit event, Reset and reused per Admit
	lease    Lease      // the grant that fired admit; Admit reads it back
	enqueued time.Duration
	grants   int64        // token grants to this client, for per-tenant stats
	hold     *obs.Counter // cached kubeshare_devlib_token_hold_ns_total child
}

// NewToken creates the token strategy for one device with the given token
// quota, usage window and residual policy. rt may be nil (telemetry
// disabled).
func NewToken(env *sim.Env, uuid string, quota, window time.Duration, residual ResidualPolicy, rt *obs.Runtime) *Token {
	if quota <= 0 {
		quota = 100 * time.Millisecond
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	t := &Token{
		env:       env,
		uuid:      uuid,
		quota:     quota,
		window:    window,
		residual:  residual,
		clients:   make(map[string]*tclient),
		recorder:  rt.EventSource("devlib"),
		grants:    rt.CounterVec("kubeshare_devlib_token_grants_total", "gpu_uuid").With(uuid),
		admits:    rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeToken)),
		throttles: rt.CounterVec("kubeshare_devlib_throttle_retries_total", "gpu_uuid").With(uuid),
		waitHist:  rt.HistogramVec("kubeshare_devlib_token_wait_seconds", "gpu_uuid").With(uuid),
		holdVec:   rt.CounterVec("kubeshare_devlib_token_hold_ns_total", "gpu_uuid", "tenant"),
	}
	t.retryFn = t.trySchedule
	t.expireFn = t.reclaim
	return t
}

// Mode returns ModeToken.
func (t *Token) Mode() Mode { return ModeToken }

// Gated reports true: tokens expire and are re-acquired.
func (t *Token) Gated() bool { return true }

// Register adds a container with its compute shares. Request and Limit are
// fractions in (0,1]; Limit is clamped to at least Request.
func (t *Token) Register(id string, res Resources) error {
	if t.down {
		return ErrDown
	}
	if _, ok := t.clients[id]; ok {
		return fmt.Errorf("sharing: client %q already registered on %s", id, t.uuid)
	}
	if res.Request < 0 || res.Request > 1 {
		return fmt.Errorf("sharing: client %q request %v out of range", id, res.Request)
	}
	if res.Limit <= 0 || res.Limit > 1 {
		return fmt.Errorf("sharing: client %q limit %v out of range", id, res.Limit)
	}
	tenant := res.Tenant
	if tenant == "" {
		tenant = id
	}
	t.clients[id] = &tclient{
		id:      id,
		tenant:  tenant,
		waitKey: waitKey(tenant),
		request: res.Request,
		limit:   max(res.Limit, res.Request),
		window:  metrics.NewUsageWindow(t.window),
	}
	return nil
}

// SetTenant attributes id's granted-token time to tenant (the owning
// sharePod) in the kubeshare_devlib_token_hold_ns_total family. Frontends
// call it right after Register — including after a reconnect re-register —
// so the attribution survives suspend/resume. Unknown ids and empty tenants
// are ignored.
func (t *Token) SetTenant(id, tenant string) {
	c, ok := t.clients[id]
	if !ok || tenant == "" || c.tenant == tenant {
		return
	}
	c.tenant = tenant
	c.waitKey = waitKey(tenant)
	c.hold = nil // re-fetched lazily under the new tenant label
}

// waitKey is the causal-trace chain key of tenant's token-wait exemplars:
// the owning sharePod. It is built when the tenant changes, not per grant.
func waitKey(tenant string) string { return "SharePod/" + tenant }

// Unregister removes a container: a pending admit is abandoned and a held
// token is reclaimed immediately. Safe to call for unknown ids.
func (t *Token) Unregister(id string) {
	c, ok := t.clients[id]
	if !ok {
		return
	}
	delete(t.clients, id)
	t.dropResidency(id)
	for i, qc := range t.queue {
		if qc == c {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	if t.holder == c {
		t.reclaim()
	}
}

// Suspend models the death of the vGPU pod hosting the token daemon: every
// queued admit fails with ErrDown, the held token is invalidated, timers
// stop, and registrations are dropped (a restarted daemon has no memory of
// its clients — surviving frontends re-register on reconnect). Usage
// windows die with the registrations; the paper's daemon keeps them in
// process memory, so a restart forgets usage history too.
func (t *Token) Suspend() {
	if t.down {
		return
	}
	t.down = true
	t.expiry.Stop()
	t.retry.Stop()
	t.holder = nil
	t.seq++ // invalidate Release of any token granted before the crash
	for _, c := range t.queue {
		ev := c.queued
		c.queued = nil
		ev.Trigger(ErrDown)
	}
	t.queue = nil
	t.clients = make(map[string]*tclient)
}

// Resume brings a suspended strategy back (the replacement vGPU pod is
// serving). Clients must Register again before admitting.
func (t *Token) Resume() { t.down = false }

// Down reports whether the strategy is suspended.
func (t *Token) Down() bool { return t.down }

// Waiting returns the queue depth — the token is device-global, so the id
// is irrelevant. The frontend uses it to release the token
// work-conservingly the moment a kernel completes while someone is queued.
func (t *Token) Waiting(id string) int { return len(t.queue) }

// Registered reports whether id is a known client.
func (t *Token) Registered(id string) bool {
	_, ok := t.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (t *Token) Clients() int { return len(t.clients) }

// Stats returns a snapshot of the strategy's state.
func (t *Token) Stats() Stats {
	s := Stats{
		QueueDepth: len(t.queue),
		Clients:    len(t.clients),
		Handoffs:   t.handoffs,
	}
	if t.holder != nil {
		s.Holder = t.holder.id
	}
	if t.swap != nil {
		s.SwappedBytes = t.swap.swapped
	}
	return s
}

// TenantStats aggregates sliding-window usage and grants per tenant, sorted
// by tenant name.
func (t *Token) TenantStats() []TenantUsage {
	byTenant := map[string]*TenantUsage{}
	for id, c := range t.clients {
		u, ok := byTenant[c.tenant]
		if !ok {
			u = &TenantUsage{Tenant: c.tenant}
			byTenant[c.tenant] = u
		}
		u.Share += t.UsageRate(id)
		u.Admits += c.grants
	}
	out := make([]TenantUsage, 0, len(byTenant))
	for _, u := range byTenant {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// UsageRate returns id's sliding-window usage share at the current instant,
// counting an in-progress hold up to now.
func (t *Token) UsageRate(id string) float64 {
	c, ok := t.clients[id]
	if !ok {
		return 0
	}
	now := t.env.Now()
	rate := c.window.Rate(now)
	if t.holder == c {
		held := now - t.grant
		if held > 0 {
			rate += float64(held) / float64(t.window)
		}
	}
	return rate
}

// Admit blocks p until id is granted the token and returns it as a gated
// lease. A client holding a still-valid token gets it back immediately.
func (t *Token) Admit(p *sim.Proc, id string) (Lease, error) {
	if t.down {
		return Lease{}, ErrDown
	}
	c, ok := t.clients[id]
	if !ok {
		return Lease{}, fmt.Errorf("sharing: admit by unregistered client %q: %w", id, ErrDown)
	}
	if t.holder == c {
		return Lease{ExpiresAt: t.grant + t.quota, Seq: t.seq, Gated: true}, nil
	}
	if c.queued != nil {
		return Lease{}, fmt.Errorf("sharing: client %q has a concurrent admit in flight", id)
	}
	// Each client admits serially (enforced above), so the grant event can
	// be reused across admits instead of allocated per call.
	ev := c.admit
	if ev == nil {
		ev = sim.NewEvent(t.env)
		c.admit = ev
	} else {
		ev.Reset()
	}
	c.queued = ev
	c.enqueued = t.env.Now()
	t.queue = append(t.queue, c)
	t.trySchedule() // may grant synchronously, clearing c.queued
	if err, ok := p.Wait(ev).(error); ok {
		return Lease{}, err // suspended while we waited
	}
	return c.lease, nil
}

// Release voluntarily returns the token. Stale releases (a token that
// already expired or was reassigned) are ignored.
func (t *Token) Release(id string, l Lease) {
	if t.holder == nil || t.holder.id != id || l.Seq != t.seq {
		return
	}
	t.reclaim()
}

// reclaim records the holder's span, clears the grant and reschedules.
func (t *Token) reclaim() {
	now := t.env.Now()
	if t.holder != nil {
		t.holder.window.AddSpan(t.grant, now)
		// The hold child is fetched on first reclaim rather than at Register,
		// so clients that never run a kernel leave no zero-valued series and
		// the label reflects the tenant set by install time.
		if t.holder.hold == nil {
			t.holder.hold = t.holdVec.With(t.uuid, t.holder.tenant)
		}
		t.holder.hold.Add(int64(now - t.grant))
		t.holder = nil
	}
	t.expiry.Stop()
	t.trySchedule()
}

// trySchedule grants the token to the best eligible queued client, following
// the paper's three steps: (1) filter clients at or above gpu_limit,
// (2) prefer the client farthest below its gpu_request, (3) otherwise the
// client with the lowest usage.
func (t *Token) trySchedule() {
	if t.holder != nil || len(t.queue) == 0 {
		return
	}
	now := t.env.Now()
	var best *tclient
	bestIdx := -1
	var bestKey float64
	bestBelow := false
	for i, c := range t.queue {
		usage := c.window.Rate(now)
		// Step 1: filter clients already at their maximum usage demand.
		if usage >= c.limit {
			continue
		}
		below := usage < c.request
		var key float64
		switch {
		case below:
			key = c.request - usage // Step 2: farthest below request wins
		case t.residual == FIFOResidual:
			key = float64(c.enqueued) // Step 3 (ablation): oldest request wins
		default:
			key = usage // Step 3 (paper): lowest usage wins
		}
		better := best == nil ||
			(below && !bestBelow) ||
			(below == bestBelow && below && key > bestKey) ||
			(below == bestBelow && !below && key < bestKey)
		if better {
			best, bestIdx, bestBelow, bestKey = c, i, below, key
		}
	}
	if best == nil {
		// Everyone queued is throttled at their limit; retry when the
		// window has slid forward by one quota.
		if !t.retry.Active() {
			t.retry = t.env.After(t.quota, t.retryFn)
			t.throttles.Inc()
			t.recorder.Eventf("GPU", t.uuid, obs.EventWarning, "Throttled",
				"%d queued clients all at gpu_limit", len(t.queue))
		}
		return
	}
	t.queue = append(t.queue[:bestIdx], t.queue[bestIdx+1:]...)
	t.seq++
	t.handoffs++
	best.grants++
	t.grants.Inc()
	t.admits.Inc()
	// Token-wait exemplar: the chain key is the owning sharePod; no span
	// anchors the grant itself (span 0), the chain's grant mark does.
	t.waitHist.ObserveDurationExemplar(now-best.enqueued, best.waitKey, 0)
	t.holder = best
	t.grant = now
	// The grant is handed over on the client record rather than as the
	// event's value: boxing a Lease into an interface allocates per grant.
	best.lease = Lease{ExpiresAt: now + t.quota, Seq: t.seq, Gated: true}
	t.expiry = t.env.After(t.quota, t.expireFn)
	ev := best.queued
	best.queued = nil
	ev.Trigger(nil)
}
