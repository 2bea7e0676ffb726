package pipeline

import (
	"cfd/internal/core"
	"cfd/internal/isa"
)

// Queue save/restore (context-switch) support. These instructions
// serialize the pipeline — fetch stalls until the window drains, at which
// point speculative queue state equals architectural state — then execute
// architecturally against committed memory, modeled with a fixed
// serialization latency on top of the drain (the decode-cracked loads and
// stores of §IV-B2's macro expansion).
//
// ctxSwitchLatency approximates the cracked pop/store (or load/push)
// sequence: one memory operation per occupied entry plus fixed overhead.
const ctxSwitchOverhead = 8

// isCtxSwitch reports whether op is a queue save/restore instruction.
func isCtxSwitch(op isa.Op) bool {
	switch op {
	case isa.SaveBQ, isa.RestoreBQ, isa.SaveVQ, isa.RestoreVQ, isa.SaveTQ, isa.RestoreTQ:
		return true
	}
	return false
}

// ctxImage returns the reusable image buffer, grown to at least n bytes.
// One buffer serves all six operations: the machine is drained during a
// save/restore, so only one image is ever live.
func (c *Core) ctxImage(n int) []byte {
	if cap(c.ctxImg) < n {
		c.ctxImg = make([]byte, n)
	}
	return c.ctxImg[:n]
}

// Scratch architectural queues, created on first use and then recycled:
// workloads that context-switch do so in a loop, and allocating three
// queues plus images per switch showed up in the save/restore profile.
func (c *Core) scratchBQ() *core.BQ {
	if c.ctxBQ == nil {
		c.ctxBQ = core.NewBQ(c.bq.size)
	}
	c.ctxBQ.Reset()
	return c.ctxBQ
}

func (c *Core) scratchTQ() *core.TQ {
	if c.ctxTQ == nil {
		c.ctxTQ = core.NewTQ(c.tq.size)
	}
	c.ctxTQ.Reset()
	return c.ctxTQ
}

func (c *Core) scratchVQ() *core.VQ {
	if c.ctxVQ == nil {
		c.ctxVQ = core.NewVQ(c.vq.size)
	}
	c.ctxVQ.Reset()
	return c.ctxVQ
}

// fetchCtxSwitch handles a save/restore at fetch: stall until the machine
// drains, then apply the operation architecturally and emit a pre-executed
// uop whose completion models the serialization latency.
func (c *Core) fetchCtxSwitch(u *uop) (stall bool, err error) {
	// The uop being fetched sits in the slot at fqTail, which is not
	// counted until the fetch sticks, so a drained machine reads zero.
	if c.robCount() > 0 || c.fqLen() > 0 {
		return true, nil // serialize: drain first
	}
	addr := c.committedReg(u.inst.Rs1) + uint64(u.inst.Imm)
	lat := uint64(ctxSwitchOverhead)
	switch u.inst.Op {
	case isa.SaveBQ:
		q, n := c.archBQ()
		img := c.ctxImage(q.ImageSize())
		if err := q.SaveTo(img); err != nil {
			return false, err
		}
		c.mem.StoreBytes(addr, img)
		lat += uint64(n)
	case isa.RestoreBQ:
		q := c.scratchBQ()
		img := c.ctxImage(q.ImageSize())
		c.mem.LoadBytes(addr, img)
		if err := q.Restore(img); err != nil {
			return false, err
		}
		// Reset the hardware BQ: contents at the front, pushed bits set.
		c.bq.specHead, c.bq.commHead, c.bq.specTail = 0, 0, 0
		c.bq.markOK = false
		for i := 0; i < q.Len(); i++ {
			e := c.bq.at(c.bq.specTail)
			*e = bqEntryHW{pred: q.At(i), pushed: true}
			c.bq.specTail++
		}
		lat += uint64(q.Len())
	case isa.SaveTQ:
		q, n := c.archTQ()
		img := c.ctxImage(q.ImageSize())
		if err := q.SaveTo(img); err != nil {
			return false, err
		}
		c.mem.StoreBytes(addr, img)
		lat += uint64(n)
	case isa.RestoreTQ:
		q := c.scratchTQ()
		img := c.ctxImage(q.ImageSize())
		c.mem.LoadBytes(addr, img)
		if err := q.Restore(img); err != nil {
			return false, err
		}
		c.tq.specHead, c.tq.commHead, c.tq.specTail = 0, 0, 0
		for i := 0; i < q.Len(); i++ {
			e := q.At(i)
			hw := c.tq.at(c.tq.specTail)
			*hw = tqEntryHW{count: e.Count, overflow: e.Overflow, pushed: true}
			c.tq.specTail++
		}
		lat += uint64(q.Len())
	case isa.SaveVQ:
		q, n := c.archVQ()
		img := c.ctxImage(q.ImageSize())
		if err := q.SaveTo(img); err != nil {
			return false, err
		}
		c.mem.StoreBytes(addr, img)
		lat += uint64(n)
	case isa.RestoreVQ:
		q := c.scratchVQ()
		img := c.ctxImage(q.ImageSize())
		c.mem.LoadBytes(addr, img)
		if err := q.Restore(img); err != nil {
			return false, err
		}
		// Drop the old in-queue registers back to the freelist, then
		// allocate fresh ones for the restored values (the cracked
		// load+push sequence of §IV-B2).
		for c.vq.commHead < c.vq.specTail {
			c.freePreg(*c.vq.at(c.vq.commHead))
			c.vq.commHead++
		}
		c.vq.specHead, c.vq.commHead, c.vq.specTail = 0, 0, 0
		for i := 0; i < q.Len(); i++ {
			pr := c.allocPreg()
			c.prf[pr] = q.At(i)
			c.markReady(pr)
			*c.vq.at(c.vq.specTail) = pr
			c.vq.specTail++
		}
		lat += uint64(q.Len())
	}
	u.resolvedFetch = true
	// The cracked sequence serializes the front end.
	c.fetchStallTill = c.now + lat
	return false, nil
}

// committedReg reads an architectural register value; with the window
// drained the RMT maps logical registers to their committed physicals.
func (c *Core) committedReg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return c.prf[c.rmt[r]]
}

// archBQ reconstructs the architectural BQ (committed head through
// speculative tail; identical when drained) and its occupancy into the
// reusable scratch queue.
func (c *Core) archBQ() (*core.BQ, int) {
	q := c.scratchBQ()
	n := 0
	for pos := c.bq.commHead; pos < c.bq.specTail; pos++ {
		_ = q.Push(c.bq.at(pos).pred)
		n++
	}
	return q, n
}

func (c *Core) archTQ() (*core.TQ, int) {
	q := c.scratchTQ()
	n := 0
	for pos := c.tq.commHead; pos < c.tq.specTail; pos++ {
		e := *c.tq.at(pos)
		if e.overflow {
			_ = q.Push(uint64(maxTripCount) + 1)
		} else {
			_ = q.Push(uint64(e.count))
		}
		n++
	}
	return q, n
}

func (c *Core) archVQ() (*core.VQ, int) {
	q := c.scratchVQ()
	n := 0
	for pos := c.vq.commHead; pos < c.vq.specTail; pos++ {
		_ = q.Push(c.prf[*c.vq.at(pos)])
		n++
	}
	return q, n
}
