// Package oracle is the reference Algorithm 1: the paper's locality- and
// resource-aware vGPU selection written step by step (candidate slices,
// per-group fit helpers, sorted node names), plus the placement-policy
// ablation knob. Production schedules through schedfw.Schedule; this
// package is the equivalence oracle that function is tested against and
// the engine behind the placement-policy ablation benchmark. Only _test.go
// files may import it (tools/detvet enforces this).
package oracle

import (
	"fmt"
	"sort"

	"kubeshare/internal/core"
)

// PlacementPolicy selects the fit heuristics of Algorithm 1's step 3 — an
// ablation knob. The paper's choice is best fit for unlabelled devices and
// worst fit for affinity-labelled ones.
type PlacementPolicy int

// Placement policies.
const (
	// PaperPolicy: best fit on plain devices, worst fit on labelled ones.
	PaperPolicy PlacementPolicy = iota
	// BestBest: best fit on both groups.
	BestBest
	// WorstWorst: worst fit on both groups.
	WorstWorst
	// FirstFit: first fitting device in pool order for both groups.
	FirstFit
)

// Schedule is Algorithm 1: locality- and resource-aware vGPU selection.
// On Assigned/NewDevice it also commits the placement onto the pool state
// (Place), so a sequence of calls sees consistent residuals.
func Schedule(r core.Request, pool *core.Pool) core.Decision {
	return ScheduleWithPolicy(r, pool, PaperPolicy)
}

// ScheduleWithPolicy is Schedule with an explicit step-3 placement policy.
func ScheduleWithPolicy(r core.Request, pool *core.Pool, policy PlacementPolicy) core.Decision {
	// Step 1: affinity-directed placement.
	if r.Aff != "" {
		if d := findAffinity(pool, r.Aff); d != nil {
			if d.Excl != r.Excl {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s has exclusion %q, request has %q", d.ID, d.Excl, r.Excl)}
			}
			if r.Anti != "" && d.Anti[r.Anti] {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s already hosts anti-affinity label %q", d.ID, r.Anti)}
			}
			if !d.Fits(r) {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s lacks capacity (util %.2f/%.2f, mem %.2f/%.2f)",
					d.ID, r.Util, d.Util, r.Mem, d.Mem)}
			}
			d.Place(r)
			return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
		}
		// First container with this affinity label: prefer an idle device so
		// the group has room to grow, else a new one.
		if d := firstIdle(pool); d != nil {
			d.Place(r)
			return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
		}
		return newDevice(r, pool)
	}

	// Step 2: filter by exclusion, anti-affinity and resources. Idle
	// devices always qualify — their previous tenants are gone.
	var candidates []*core.DeviceState
	for _, d := range pool.Devices {
		if !d.Idle {
			if (r.Excl != "" || d.Excl != "") && r.Excl != d.Excl {
				continue
			}
			if r.Anti != "" && d.Anti[r.Anti] {
				continue
			}
			if !d.Fits(r) {
				continue
			}
		}
		candidates = append(candidates, d)
	}

	// Step 3: placement. The paper uses best fit among devices without
	// affinity labels and worst fit among affinity-labelled ones (keeping
	// room for their future group members), then a new device.
	var plain, labelled []*core.DeviceState
	for _, d := range candidates {
		if len(d.Aff) == 0 || d.Idle {
			plain = append(plain, d)
		} else {
			labelled = append(labelled, d)
		}
	}
	var plainFit, labelledFit func(core.Request, []*core.DeviceState) *core.DeviceState
	switch policy {
	case BestBest:
		plainFit, labelledFit = bestFit, bestFit
	case WorstWorst:
		plainFit, labelledFit = worstFit, worstFit
	case FirstFit:
		plainFit, labelledFit = firstFit, firstFit
	default:
		plainFit, labelledFit = bestFit, worstFit
	}
	d := plainFit(r, plain)
	if d == nil {
		d = labelledFit(r, labelled)
	}
	if d == nil {
		return newDevice(r, pool)
	}
	d.Place(r)
	return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
}

// findAffinity returns the device carrying the affinity label (the pool
// invariant keeps at most one, since affinity forces co-location).
func findAffinity(pool *core.Pool, label string) *core.DeviceState {
	for _, d := range pool.Devices {
		if !d.Idle && d.Aff[label] {
			return d
		}
	}
	return nil
}

// firstIdle returns an idle pool device, lowest ID first for determinism.
func firstIdle(pool *core.Pool) *core.DeviceState {
	var idle []*core.DeviceState
	for _, d := range pool.Devices {
		if d.Idle {
			idle = append(idle, d)
		}
	}
	if len(idle) == 0 {
		return nil
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].ID < idle[j].ID })
	return idle[0]
}

// residual is the fit metric: remaining compute capacity after placement
// (idle devices count as full). Best fit minimizes it, worst fit maximizes.
func residual(d *core.DeviceState) float64 {
	if d.Idle {
		return 1
	}
	return d.Util
}

// bestFit picks the fitting device with the smallest residual — pack
// existing devices tight (idle devices, with residual 1, come last).
func bestFit(r core.Request, ds []*core.DeviceState) *core.DeviceState {
	var best *core.DeviceState
	for _, d := range ds {
		if !d.Fits(r) {
			continue
		}
		if best == nil || residual(d) < residual(best) ||
			(residual(d) == residual(best) && d.ID < best.ID) {
			best = d
		}
	}
	return best
}

// worstFit picks the fitting device with the largest residual — leave the
// most room next to existing affinity groups.
func worstFit(r core.Request, ds []*core.DeviceState) *core.DeviceState {
	var best *core.DeviceState
	for _, d := range ds {
		if !d.Fits(r) {
			continue
		}
		if best == nil || residual(d) > residual(best) ||
			(residual(d) == residual(best) && d.ID < best.ID) {
			best = d
		}
	}
	return best
}

// firstFit picks the first fitting device in pool order (ablation
// baseline).
func firstFit(r core.Request, ds []*core.DeviceState) *core.DeviceState {
	for _, d := range ds {
		if d.Fits(r) {
			return d
		}
	}
	return nil
}

// PickNewDeviceNode decides where a fresh vGPU would go — the node with the
// most free physical GPUs (spreading acquisition), ties to the smallest
// node name — without committing anything; "" means the cluster has none
// left.
func PickNewDeviceNode(pool *core.Pool) string {
	bestNode, bestFree := "", 0
	var nodes []string
	for n := range pool.FreePhysical {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if free := pool.FreePhysical[n]; free > bestFree {
			bestNode, bestFree = n, free
		}
	}
	return bestNode
}

// newDevice decides where a fresh vGPU goes and commits it onto the pool,
// or NoCapacity when the cluster has no physical GPU left.
func newDevice(r core.Request, pool *core.Pool) core.Decision {
	bestNode := PickNewDeviceNode(pool)
	if bestNode == "" {
		return core.Decision{Outcome: core.NoCapacity, Reason: core.NoFreeGPUReason}
	}
	pool.FreePhysical[bestNode]--
	id := pool.NewID()
	d := core.NewDeviceState(id, bestNode)
	if pool.MemFactor > 0 {
		d.MemCapacity = pool.MemFactor
		d.Mem = pool.MemFactor
	}
	d.Place(r)
	pool.Devices = append(pool.Devices, d)
	return core.Decision{Outcome: core.NewDevice, GPUID: id, NodeName: bestNode}
}
