package pipeline

import "math/bits"

// The issue queue is wakeup-driven and has no array of its own: a uop is in
// it while it is in the window with inIQ set and issued clear (iqLen counts
// them).
// At dispatch each uop counts its source operands that are not yet ready
// (uop.pending) and joins the waiter list of each one's physical register.
// markReady decrements the waiters of a register that becomes ready, and a
// uop whose count reaches zero sets its bit in the ready bitmap. Select
// walks that bitmap in rob (age) order from robHead.
//
// This selects exactly what a per-cycle rescan of the whole queue would:
// readiness changes only in complete(), which runs before issue(), and in
// rename and fetch (a VQ restore), which run after it; the load
// disambiguation check stays dynamic at select (a store's execute can
// advance sqResolvedTo mid-cycle). Two kinds of waiter go stale, and
// neither wakes anything: one whose rob slot was squashed and refilled
// (its seq no longer matches the slot's), and one on a register that
// recovery freed and rename reallocated (allocPreg empties the register's
// list).

// waiter is one not-ready source operand of the uop with sequence number
// seq in rob slot slot: a node in its register's waiter list.
type waiter struct {
	seq  uint64
	slot uint32
	next int32 // next waiter on the same register (0 = end)
}

// dispatch enters a renamed uop into the issue queue.
func (c *Core) dispatch(u *uop, pos uint64) {
	c.iqLen++
	slot := pos & c.robMask
	c.waitOn(u.psrc1, u, slot)
	c.waitOn(u.psrc2, u, slot)
	c.waitOn(u.psrc3, u, slot)
	c.waitOn(u.vqSrcPreg, u, slot)
	if u.pending == 0 {
		c.ready[slot>>6] |= 1 << (slot & 63)
	}
}

// waitOn counts source register pr against u when it is not ready yet and
// adds u to pr's waiter list.
func (c *Core) waitOn(pr int32, u *uop, slot uint64) {
	if pr < 0 || c.prfReady[pr] {
		return
	}
	u.pending++
	n := c.waitFree
	if n != 0 {
		c.waitFree = c.waiters[n].next
	} else {
		n = int32(len(c.waiters))
		c.waiters = append(c.waiters, waiter{})
	}
	c.waiters[n] = waiter{seq: u.seq, slot: uint32(slot), next: c.waitHead[pr]}
	c.waitHead[pr] = n
}

// markReady makes physical register pr's value visible to its dependents
// and wakes the live ones waiting on it. It is the only place a register
// becomes ready after allocation.
func (c *Core) markReady(pr int32) {
	c.prfReady[pr] = true
	n := c.waitHead[pr]
	c.waitHead[pr] = 0
	for n != 0 {
		w := &c.waiters[n]
		if u := &c.rob[w.slot]; u.seq == w.seq && !u.squashed {
			if u.pending--; u.pending == 0 {
				c.ready[w.slot>>6] |= 1 << (w.slot & 63)
			}
		}
		next := w.next
		w.next = c.waitFree
		c.waitFree = n
		n = next
	}
}

// dropWaiters returns pr's whole waiter list to the free list.
func (c *Core) dropWaiters(pr int32) {
	head := c.waitHead[pr]
	if head == 0 {
		return
	}
	c.waitHead[pr] = 0
	n := head
	for c.waiters[n].next != 0 {
		n = c.waiters[n].next
	}
	c.waiters[n].next = c.waitFree
	c.waitFree = head
}

// unready clears the ready bit of the uop at pos (issued or squashed).
func (c *Core) unready(pos uint64) {
	slot := pos & c.robMask
	c.ready[slot>>6] &^= 1 << (slot & 63)
}

// nextReady returns the position of the oldest operand-ready uop at or
// after pos, or a position at or past robTail when there is none. Bitmap
// words never straddle the ring's end (the rob ring holds at least 64
// slots), so pos&63 is the slot's bit within its word.
func (c *Core) nextReady(pos uint64) uint64 {
	for pos < c.robTail {
		if w := c.ready[(pos&c.robMask)>>6] >> (pos & 63); w != 0 {
			return pos + uint64(bits.TrailingZeros64(w))
		}
		pos = (pos | 63) + 1
	}
	return pos
}
