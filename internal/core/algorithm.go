package core

import "fmt"

// Request is Algorithm 1's r: a container's requirements and constraints.
type Request struct {
	Util float64 // gpu_request
	Mem  float64 // gpu_mem
	// MemBytes is the absolute memory request (gpu_mem_bytes, KAI-style).
	// Zero means the request is purely fractional; positive means Mem is 0
	// and the byte quantity drives memory fit.
	MemBytes int64
	Aff      string // sched_affinity label ("" = none)
	Anti     string // sched_anti-affinity label
	Excl     string // sched_exclusion label
}

// DeviceMemBytes is the physical memory per device the byte-quantity
// accounting assumes — the paper's 16 GB V100s, matching gpusim's
// DefaultMemoryBytes (core cannot import gpusim; the equality is pinned by
// a test).
const DeviceMemBytes = 16 << 30

// DeviceState is Algorithm 1's d: one vGPU's scheduling view. Residuals are
// fractions of the device remaining for gpu_request / gpu_mem commitments.
type DeviceState struct {
	ID       string
	NodeName string
	Util     float64 // residual computing capacity
	Mem      float64 // residual memory space
	// MemCapacity is the device's total schedulable memory fraction — 1.0
	// normally, >1.0 when GPUswap-style over-commitment is enabled.
	MemCapacity float64
	// MemBytesUsed is the byte-denominated view of the committed memory:
	// byte-quantity requests add their exact size, fractional requests their
	// byte equivalent. Byte requests fit against memBytesCap() minus this,
	// so the two denominations deduct from one shared capacity.
	MemBytesUsed int64
	Aff          map[string]bool
	Anti         map[string]bool
	Excl         string
	Idle         bool // no container scheduled on the device
}

// NewDeviceState returns an empty (idle, full-capacity) device.
func NewDeviceState(id, node string) *DeviceState {
	return &DeviceState{
		ID:          id,
		NodeName:    node,
		Util:        1,
		Mem:         1,
		MemCapacity: 1,
		Aff:         map[string]bool{},
		Anti:        map[string]bool{},
		Idle:        true,
	}
}

// Clone returns an independent copy of the device state.
func (d *DeviceState) Clone() *DeviceState {
	out := *d
	out.Aff = make(map[string]bool, len(d.Aff))
	for k, v := range d.Aff {
		out.Aff[k] = v
	}
	out.Anti = make(map[string]bool, len(d.Anti))
	for k, v := range d.Anti {
		out.Anti[k] = v
	}
	return &out
}

// Fits reports whether r's resource demand fits the residuals. Idle devices
// may carry stale residual bookkeeping from the pool builder, so capacity is
// taken as full for them.
func (d *DeviceState) Fits(r Request) bool {
	if !d.FitsMemBytes(r) {
		return false
	}
	if d.Idle {
		return r.Util <= 1 && r.Mem <= d.memCapacity()
	}
	return r.Util <= d.Util+1e-9 && r.Mem <= d.Mem+1e-9
}

// FitsMemBytes reports whether the request's byte-denominated memory demand
// alone fits the device — vacuously true for purely fractional requests.
func (d *DeviceState) FitsMemBytes(r Request) bool {
	if r.MemBytes <= 0 {
		return true
	}
	if d.Idle {
		return r.MemBytes <= d.memBytesCap()
	}
	return d.MemBytesUsed+r.MemBytes <= d.memBytesCap()
}

func (d *DeviceState) memCapacity() float64 {
	if d.MemCapacity <= 0 {
		return 1
	}
	return d.MemCapacity
}

// memBytesCap is the byte-denominated schedulable memory: the physical
// device scaled by the over-commitment factor.
func (d *DeviceState) memBytesCap() int64 {
	return int64(d.memCapacity() * float64(DeviceMemBytes))
}

// Place commits r onto the device, updating residuals and labels. Placing
// onto an idle device first resets its stale labels (a reused pool device
// starts fresh, §4.4).
func (d *DeviceState) Place(r Request) {
	if d.Idle {
		d.Util, d.Mem = 1, d.memCapacity()
		d.MemBytesUsed = 0
		d.Aff = map[string]bool{}
		d.Anti = map[string]bool{}
		d.Excl = ""
		d.Idle = false
	}
	d.Util -= r.Util
	// Both memory denominations deduct from both books: a byte tenant
	// shrinks the fractional residual by its byte equivalent (so later
	// fractional tenants see the space gone) and vice versa. Purely
	// fractional pools never see a byte-driven float change, keeping legacy
	// placements bit-identical.
	mem := r.Mem
	if r.MemBytes > 0 && mem == 0 {
		mem = float64(r.MemBytes) / float64(DeviceMemBytes)
	}
	bytes := r.MemBytes
	if bytes == 0 && r.Mem > 0 {
		bytes = int64(r.Mem * float64(DeviceMemBytes))
	}
	d.Mem -= mem
	d.MemBytesUsed += bytes
	if r.Aff != "" {
		d.Aff[r.Aff] = true
	}
	if r.Anti != "" {
		d.Anti[r.Anti] = true
	}
	d.Excl = r.Excl
}

// Pool is Algorithm 1's D plus the physical capacity needed to decide
// whether a new vGPU can be created.
type Pool struct {
	Devices []*DeviceState
	// FreePhysical maps node name → physical GPUs not yet acquired as vGPUs
	// and not held by native pods.
	FreePhysical map[string]int
	// nextID serializes fresh GPUIDs for new_dev.
	NewID func() string
	// MemFactor scales each device's schedulable memory (1.0 default;
	// >1.0 permits over-commitment backed by the device library's swap).
	MemFactor float64
}

// Outcome classifies a scheduling decision.
type Outcome int

// Decision outcomes.
const (
	// Assigned: the request fits an existing vGPU.
	Assigned Outcome = iota
	// NewDevice: a new vGPU must be created on Decision.NodeName.
	NewDevice
	// Rejected: the locality constraints are unsatisfiable (Algorithm 1's
	// "return -1").
	Rejected
	// NoCapacity: a new vGPU is needed but no physical GPU is free; the
	// request should wait and be retried.
	NoCapacity
)

func (o Outcome) String() string {
	switch o {
	case Assigned:
		return "Assigned"
	case NewDevice:
		return "NewDevice"
	case Rejected:
		return "Rejected"
	case NoCapacity:
		return "NoCapacity"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Decision is the result of Algorithm 1 for one request.
type Decision struct {
	Outcome  Outcome
	GPUID    string
	NodeName string
	Reason   string
}

// NoFreeGPUReason is the NoCapacity reason when no physical GPU is free.
const NoFreeGPUReason = "no free physical GPU in the cluster"
