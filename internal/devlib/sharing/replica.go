package sharing

import (
	"fmt"
	"sort"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Replica is the replica time-slicing strategy: the device advertises N
// logical GPUs (slots). Clients are assigned to slots round-robin at
// registration and take plain FIFO quota-length turns within their slot —
// no usage windows, no gpu_request/gpu_limit arbitration. Slots are
// concurrent with respect to each other (their holders' kernels overlap on
// the physical device under gpusim's processor sharing), which is exactly
// the NVIDIA time-slicing device-plugin model: predictable turn order per
// replica, no cross-replica compute isolation.
type Replica struct {
	env      *sim.Env
	uuid     string
	quota    time.Duration
	slots    []*rslot
	clients  map[string]*rclient
	nextSlot int // registration round-robin cursor
	handoffs int64
	down     bool
	admits   *obs.Counter
	holdVec  *obs.CounterVec
}

type rclient struct {
	id      string
	tenant  string
	slot    int
	queued  *sim.Event // pending admit, nil when none
	admits  int64
	holdNS  int64
	holdCtr *obs.Counter // cached kubeshare_sharing_devtime_ns_total child
}

type rslot struct {
	queue    []*rclient
	holder   *rclient
	grant    time.Duration
	seq      uint64
	expiry   sim.Timer
	expireFn func()
}

// NewReplica creates the strategy with n logical slots (min 1) and the
// given turn quota. rt may be nil (telemetry disabled).
func NewReplica(env *sim.Env, uuid string, n int, quota time.Duration, rt *obs.Runtime) *Replica {
	if n < 1 {
		n = 1
	}
	if quota <= 0 {
		quota = 100 * time.Millisecond
	}
	r := &Replica{
		env:     env,
		uuid:    uuid,
		quota:   quota,
		clients: make(map[string]*rclient),
		admits:  rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeReplica)),
		holdVec: rt.CounterVec("kubeshare_sharing_devtime_ns_total", "gpu_uuid", "tenant"),
	}
	r.slots = make([]*rslot, n)
	for i := range r.slots {
		s := &rslot{}
		s.expireFn = func() { r.reclaim(s) }
		r.slots[i] = s
	}
	return r
}

// Mode returns ModeReplica.
func (r *Replica) Mode() Mode { return ModeReplica }

// Gated reports true: slot turns expire and are re-admitted.
func (r *Replica) Gated() bool { return true }

// Replicas returns the number of logical slots.
func (r *Replica) Replicas() int { return len(r.slots) }

// Register assigns the client to the next logical slot round-robin.
func (r *Replica) Register(id string, res Resources) error {
	if r.down {
		return ErrDown
	}
	if _, ok := r.clients[id]; ok {
		return fmt.Errorf("sharing: client %q already registered on %s", id, r.uuid)
	}
	tenant := res.Tenant
	if tenant == "" {
		tenant = id
	}
	r.clients[id] = &rclient{id: id, tenant: tenant, slot: r.nextSlot % len(r.slots)}
	r.nextSlot++
	return nil
}

// Unregister removes a client: a pending admit is abandoned and a held
// slot turn reclaimed immediately.
func (r *Replica) Unregister(id string) {
	c, ok := r.clients[id]
	if !ok {
		return
	}
	delete(r.clients, id)
	s := r.slots[c.slot]
	for i, qc := range s.queue {
		if qc == c {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	if s.holder == c {
		r.reclaim(s)
	}
}

// SetTenant attributes id's slot time to tenant.
func (r *Replica) SetTenant(id, tenant string) {
	c, ok := r.clients[id]
	if !ok || tenant == "" || c.tenant == tenant {
		return
	}
	c.tenant = tenant
	c.holdCtr = nil // re-fetched lazily under the new tenant label
}

// Registered reports whether id is known.
func (r *Replica) Registered(id string) bool {
	_, ok := r.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (r *Replica) Clients() int { return len(r.clients) }

// Admit blocks p until id's slot grants it a turn. A client already
// holding a valid turn gets it back immediately.
func (r *Replica) Admit(p *sim.Proc, id string) (Lease, error) {
	if r.down {
		return Lease{}, ErrDown
	}
	c, ok := r.clients[id]
	if !ok {
		return Lease{}, fmt.Errorf("sharing: admit by unregistered client %q: %w", id, ErrDown)
	}
	s := r.slots[c.slot]
	if s.holder == c {
		return Lease{ExpiresAt: s.grant + r.quota, Seq: s.seq, Gated: true}, nil
	}
	if c.queued != nil {
		return Lease{}, fmt.Errorf("sharing: client %q has a concurrent admit in flight", id)
	}
	ev := sim.NewEvent(r.env)
	c.queued = ev
	s.queue = append(s.queue, c)
	r.trySchedule(s)
	v := p.Wait(ev)
	if err, ok := v.(error); ok {
		return Lease{}, err // suspended while waiting
	}
	return v.(Lease), nil
}

// Release voluntarily ends the turn. Stale leases are ignored.
func (r *Replica) Release(id string, l Lease) {
	c, ok := r.clients[id]
	if !ok {
		return
	}
	s := r.slots[c.slot]
	if s.holder != c || l.Seq != s.seq {
		return
	}
	r.reclaim(s)
}

// Waiting returns the number of clients queued on id's slot (0 for
// unknown ids): holding the turn only delays slot-mates.
func (r *Replica) Waiting(id string) int {
	c, ok := r.clients[id]
	if !ok {
		return 0
	}
	return len(r.slots[c.slot].queue)
}

// Suspend fails every queued admit with ErrDown, invalidates turns and
// drops registrations, mirroring Token's crash semantics.
func (r *Replica) Suspend() {
	if r.down {
		return
	}
	r.down = true
	for _, s := range r.slots {
		s.expiry.Stop()
		s.holder = nil
		s.seq++ // invalidate Release of pre-crash turns
		for _, c := range s.queue {
			ev := c.queued
			c.queued = nil
			ev.Trigger(ErrDown)
		}
		s.queue = nil
	}
	r.clients = make(map[string]*rclient)
	r.nextSlot = 0
}

// Resume brings a suspended strategy back; clients must Register again.
func (r *Replica) Resume() { r.down = false }

// Down reports whether the strategy is suspended.
func (r *Replica) Down() bool { return r.down }

// UsageRate returns 0: replica slots do not meter window usage; fairness
// is structural (round-robin turns).
func (r *Replica) UsageRate(id string) float64 { return 0 }

// Stats snapshots the strategy. Holder is the first busy slot's holder.
func (r *Replica) Stats() Stats {
	s := Stats{Clients: len(r.clients), Handoffs: r.handoffs}
	for _, sl := range r.slots {
		s.QueueDepth += len(sl.queue)
		if s.Holder == "" && sl.holder != nil {
			s.Holder = sl.holder.id
		}
	}
	return s
}

// TenantStats aggregates turns and hold time per tenant, sorted by name.
func (r *Replica) TenantStats() []TenantUsage {
	byTenant := map[string]*TenantUsage{}
	for _, c := range r.clients {
		t, ok := byTenant[c.tenant]
		if !ok {
			t = &TenantUsage{Tenant: c.tenant}
			byTenant[c.tenant] = t
		}
		t.Admits += c.admits
		t.HoldNS += c.holdNS
	}
	out := make([]TenantUsage, 0, len(byTenant))
	for _, t := range byTenant {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// reclaim records the holder's turn, clears the slot and reschedules it.
func (r *Replica) reclaim(s *rslot) {
	now := r.env.Now()
	if s.holder != nil {
		held := int64(now - s.grant)
		s.holder.holdNS += held
		if s.holder.holdCtr == nil {
			s.holder.holdCtr = r.holdVec.With(r.uuid, s.holder.tenant)
		}
		s.holder.holdCtr.Add(held)
		s.holder = nil
	}
	s.expiry.Stop()
	r.trySchedule(s)
}

// trySchedule grants the slot to the longest-waiting queued client — plain
// FIFO round-robin, no usage arbitration.
func (r *Replica) trySchedule(s *rslot) {
	if s.holder != nil || len(s.queue) == 0 {
		return
	}
	c := s.queue[0]
	s.queue = s.queue[1:]
	s.seq++
	r.handoffs++
	c.admits++
	r.admits.Inc()
	s.holder = c
	s.grant = r.env.Now()
	lease := Lease{ExpiresAt: s.grant + r.quota, Seq: s.seq, Gated: true}
	s.expiry = r.env.After(r.quota, s.expireFn)
	ev := c.queued
	c.queued = nil
	ev.Trigger(lease)
}
