package schedfw

import (
	"fmt"

	"kubeshare/internal/core"
)

// Schedule is Algorithm 1, locality- and resource-aware vGPU selection,
// decided in one pass over the cycle's pool. Assigned and NewDevice
// decisions are already reserved onto the transaction when it returns; the
// caller commits or rolls back. It is pure: no clock, no API server, no
// telemetry, and no allocation unless it places or rejects.
func Schedule(r *core.Request, t *Txn) core.Decision {
	if r.Aff != "" {
		return scheduleGroup(r, t)
	}
	// Step 2: exclusion, anti-affinity and resource fit; idle devices skip
	// the label checks, since their previous tenants are gone. Step 3 in
	// the same pass: best fit (smallest residual) among plain devices,
	// worst fit (largest residual) among affinity-labelled ones, each tied
	// to the lowest device ID. Plain devices win over labelled ones.
	var plain, labelled *core.DeviceState
	var plainRes float64
	for _, d := range t.pool.Devices {
		if !d.Idle && (d.Excl != r.Excl || r.Anti != "" && d.Anti[r.Anti]) {
			continue
		}
		if !d.Fits(*r) {
			continue
		}
		if d.Idle || len(d.Aff) == 0 {
			res := d.Util // residual compute; an idle device counts as full
			if d.Idle {
				res = 1
			}
			if plain == nil || res < plainRes || res == plainRes && d.ID < plain.ID {
				plain, plainRes = d, res
			}
		} else if labelled == nil || d.Util > labelled.Util || d.Util == labelled.Util && d.ID < labelled.ID {
			labelled = d
		}
	}
	if plain == nil {
		plain = labelled
	}
	if plain == nil {
		return newDevice(r, t)
	}
	return place(r, t, plain)
}

// scheduleGroup is step 1, affinity-directed placement: join the device
// already hosting the request's group (rejecting on an exclusion,
// anti-affinity or capacity conflict), else open the group on the
// lowest-ID idle device, else on a new device.
func scheduleGroup(r *core.Request, t *Txn) core.Decision {
	var idle *core.DeviceState
	for _, d := range t.pool.Devices {
		if d.Idle {
			if idle == nil || d.ID < idle.ID {
				idle = d
			}
			continue
		}
		if !d.Aff[r.Aff] {
			continue
		}
		// Affinity forces co-location, so at most one device carries the
		// label.
		switch {
		case d.Excl != r.Excl:
			return reject("affinity device %s has exclusion %q, request has %q", d.ID, d.Excl, r.Excl)
		case r.Anti != "" && d.Anti[r.Anti]:
			return reject("affinity device %s already hosts anti-affinity label %q", d.ID, r.Anti)
		case !d.Fits(*r):
			return reject("affinity device %s lacks capacity (util %.2f/%.2f, mem %.2f/%.2f)",
				d.ID, r.Util, d.Util, r.Mem, d.Mem)
		}
		return place(r, t, d)
	}
	if idle != nil {
		return place(r, t, idle)
	}
	return newDevice(r, t)
}

// newDevice opens a fresh vGPU on the node with the most free physical
// GPUs (ties to the smallest node name), or reports NoCapacity when the
// cluster has none left. The vGPU ID is drawn only when a device is
// created; IDs are not returned on rollback.
func newDevice(r *core.Request, t *Txn) core.Decision {
	node, free := "", 0
	for n, f := range t.pool.FreePhysical {
		if f > free || f == free && f > 0 && n < node {
			node, free = n, f
		}
	}
	if node == "" {
		return core.Decision{Outcome: core.NoCapacity, Reason: core.NoFreeGPUReason}
	}
	id := t.pool.NewID()
	t.AddDevice(node, id, *r)
	return core.Decision{Outcome: core.NewDevice, GPUID: id, NodeName: node}
}

func place(r *core.Request, t *Txn, d *core.DeviceState) core.Decision {
	t.Place(d, *r)
	return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
}

func reject(format string, args ...any) core.Decision {
	return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(format, args...)}
}
