package sim

// Slot slab and 4-ary heap: the storage half of the Env's event queue (see
// the package comment for the ring / head register / heap split).

// newSlot returns a free item slot, recycling one when possible.
func (env *Env) newSlot() uint32 {
	if n := len(env.freeSlots); n > 0 {
		s := env.freeSlots[n-1]
		env.freeSlots = env.freeSlots[:n-1]
		return s
	}
	env.items = append(env.items, item{})
	return uint32(len(env.items) - 1)
}

// recycle bumps the generation (invalidating outstanding Timers) and returns
// the slot to the pool. Called exactly once per scheduled event, when its
// entry leaves the ring, head register or heap.
func (env *Env) recycle(slot uint32) {
	it := &env.items[slot]
	it.gen++
	it.cancelled = false
	it.inHeap = false
	env.freeSlots = append(env.freeSlots, slot)
}

// demoteHead moves the head-register entry into the heap; the caller
// immediately refills (or invalidates) the register.
func (env *Env) demoteHead() {
	hit := &env.items[env.head.slot]
	hit.inHeap = true
	if hit.cancelled {
		env.heapCancelled++
	}
	env.heapPush(env.head)
}

// 4-ary heap --------------------------------------------------------------
//
// Children of node i live at 4i+1..4i+4, the parent at (i-1)/4. Compared to
// a binary heap this halves the tree depth (fewer cache lines touched per
// sift) at the cost of three extra comparisons per level on the way down.

func (env *Env) heapPush(e entry) {
	h := append(env.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	env.heap = h
}

func (env *Env) heapPop() entry {
	h := env.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	env.heap = h[:n]
	if n > 1 {
		env.siftDown(0)
	}
	return top
}

func (env *Env) siftDown(i int) {
	h := env.heap
	n := len(h)
	for {
		min := i
		c := i<<2 + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if entryLess(&h[c], &h[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// compact removes cancelled entries in place, recycles their slots and
// re-heapifies (Floyd's bottom-up construction).
func (env *Env) compact() {
	h := env.heap[:0]
	for _, e := range env.heap {
		if env.items[e.slot].cancelled {
			env.recycle(e.slot)
			continue
		}
		h = append(h, e)
	}
	env.heap = h
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		env.siftDown(i)
	}
	env.heapCancelled = 0
}
