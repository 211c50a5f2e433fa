package sharing

import (
	"fmt"
	"sort"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// MPS is the concurrent-overlap strategy: every registered client is
// admitted immediately with an ungated lease, so kernels from different
// tenants run simultaneously on the device. The compute split is modeled by
// gpusim's weighted processor sharing — the frontend sets each context's
// compute weight to the container's gpu_request, mirroring MPS active
// thread percentages — and isolation is limited: a fault in one context
// poisons co-resident tenants (gpusim.Device.InjectContextFault).
type MPS struct {
	env     *sim.Env
	uuid    string
	clients map[string]*mpsClient
	seq     uint64
	down    bool
	admits  *obs.Counter
}

type mpsClient struct {
	id     string
	tenant string
	admits int64
}

// NewMPS creates the overlap strategy for one device. rt may be nil
// (telemetry disabled).
func NewMPS(env *sim.Env, uuid string, rt *obs.Runtime) *MPS {
	return &MPS{
		env:     env,
		uuid:    uuid,
		clients: make(map[string]*mpsClient),
		admits:  rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeMPS)),
	}
}

// Mode returns ModeMPS.
func (m *MPS) Mode() Mode { return ModeMPS }

// Gated reports false: leases never expire, kernels overlap.
func (m *MPS) Gated() bool { return false }

// Register adds a client. Requests are not summed or capped here —
// KubeShare-Sched keeps the per-device sum ≤ 1, and the weighted
// processor-sharing model degrades proportionally when it does not.
func (m *MPS) Register(id string, res Resources) error {
	if m.down {
		return ErrDown
	}
	if _, ok := m.clients[id]; ok {
		return fmt.Errorf("sharing: client %q already registered on %s", id, m.uuid)
	}
	if res.Request < 0 || res.Request > 1 {
		return fmt.Errorf("sharing: client %q request %v out of range", id, res.Request)
	}
	tenant := res.Tenant
	if tenant == "" {
		tenant = id
	}
	m.clients[id] = &mpsClient{id: id, tenant: tenant}
	return nil
}

// Unregister removes a client; its ungated lease dies with it.
func (m *MPS) Unregister(id string) { delete(m.clients, id) }

// SetTenant attributes id's admissions to tenant.
func (m *MPS) SetTenant(id, tenant string) {
	if c, ok := m.clients[id]; ok && tenant != "" {
		c.tenant = tenant
	}
}

// Registered reports whether id is known.
func (m *MPS) Registered(id string) bool {
	_, ok := m.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (m *MPS) Clients() int { return len(m.clients) }

// Admit grants an ungated lease immediately — overlap means nobody waits
// for admission; contention is resolved on the device by weighted
// processor sharing.
func (m *MPS) Admit(p *sim.Proc, id string) (Lease, error) {
	if m.down {
		return Lease{}, ErrDown
	}
	c, ok := m.clients[id]
	if !ok {
		return Lease{}, fmt.Errorf("sharing: admit by unregistered client %q: %w", id, ErrDown)
	}
	m.seq++
	c.admits++
	m.admits.Inc()
	return Lease{Seq: m.seq, Gated: false}, nil
}

// Release is a no-op: ungated leases are reclaimed by Unregister/Suspend.
func (m *MPS) Release(id string, l Lease) {}

// Waiting returns 0: admission never queues.
func (m *MPS) Waiting(id string) int { return 0 }

// Suspend drops all registrations and fails subsequent admissions with
// ErrDown until Resume, mirroring Token's crash semantics.
// Outstanding ungated leases stay valid: with no gate in the data path, a
// daemon outage does not stop already-admitted contexts (real MPS behaves
// the same way — the control daemon dying leaves running contexts alone).
func (m *MPS) Suspend() {
	if m.down {
		return
	}
	m.down = true
	m.clients = make(map[string]*mpsClient)
}

// Resume brings a suspended strategy back; clients must Register again.
func (m *MPS) Resume() { m.down = false }

// Down reports whether the strategy is suspended.
func (m *MPS) Down() bool { return m.down }

// UsageRate returns 0: overlap usage is metered at the device
// (gpusim.Context.DeviceTime → kubeshare_sharing_devtime_ns_total), not in
// the strategy.
func (m *MPS) UsageRate(id string) float64 { return 0 }

// Stats snapshots the strategy.
func (m *MPS) Stats() Stats {
	s := Stats{Clients: len(m.clients)}
	for _, c := range m.clients {
		s.Handoffs += c.admits
	}
	return s
}

// TenantStats aggregates admissions per tenant, sorted by tenant name.
func (m *MPS) TenantStats() []TenantUsage {
	byTenant := map[string]*TenantUsage{}
	for _, c := range m.clients {
		t, ok := byTenant[c.tenant]
		if !ok {
			t = &TenantUsage{Tenant: c.tenant}
			byTenant[c.tenant] = t
		}
		t.Admits += c.admits
	}
	out := make([]TenantUsage, 0, len(byTenant))
	for _, t := range byTenant {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
