package pipeline

import (
	"fmt"

	"cfd/internal/core"
	"cfd/internal/fault"
	"cfd/internal/isa"
)

// retRing keeps the last few retired instructions for fault snapshots. It
// stores raw (pc, inst) pairs so the hot retire path never allocates;
// rendering happens only when a snapshot is taken.
type retRing struct {
	buf [fault.RingDepth]struct {
		pc uint64
		in isa.Inst
	}
	next int
	full bool
}

func (r *retRing) record(pc uint64, in isa.Inst) {
	r.buf[r.next] = struct {
		pc uint64
		in isa.Inst
	}{pc, in}
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *retRing) snapshot() []fault.RetiredInst {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]fault.RetiredInst, 0, n)
	emit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out = append(out, fault.RetiredInst{PC: r.buf[i].pc, Text: r.buf[i].in.String()})
		}
	}
	if r.full {
		emit(r.next, len(r.buf))
	}
	emit(0, r.next)
	return out
}

// snapshot captures the core's architectural vantage for fault diagnostics:
// current cycle and fetch PC, the architectural queue lengths of the fetch
// stall rule (§III-C3), the speculative TCR, and the last retirements.
func (c *Core) snapshot() fault.Snapshot {
	return fault.Snapshot{
		Engine:      "pipeline",
		PC:          c.fetchPC,
		Cycle:       c.now,
		Retired:     c.Stats.Retired,
		BQLen:       c.bq.length(),
		VQLen:       c.vq.length(),
		TQLen:       c.tq.length(),
		TCR:         c.specTCR,
		LastRetired: c.diag.snapshot(),
	}
}

// queueFault raises a QueueViolation fault wrapping the ISA ordering-rule
// violation v, with pc overriding the snapshot's fetch PC (faults detected
// at retire anchor at the retiring instruction, not the fetch frontier).
func (c *Core) queueFault(pc uint64, v *core.ViolationError) error {
	snap := c.snapshot()
	snap.PC = pc
	return fault.Wrap(fault.QueueViolation, fmt.Errorf("pipeline: pc %d: %w", pc, v), snap)
}

// checkInvariants validates the model's internal pointer discipline. A
// breach is always a simulator bug; it is reported as a typed fault with
// state instead of corrupting the run silently (or panicking on a later
// index).
func (c *Core) checkInvariants() error {
	breach := func(format string, args ...any) error {
		return fault.New(fault.InvariantBreach, c.snapshot(), format, args...)
	}
	switch {
	case c.bq.specHead > c.bq.specTail || c.bq.commHead > c.bq.specHead:
		return breach("BQ pointers out of order: comm %d, head %d, tail %d",
			c.bq.commHead, c.bq.specHead, c.bq.specTail)
	case c.bq.length() > c.bq.size:
		return breach("BQ occupancy %d exceeds size %d", c.bq.length(), c.bq.size)
	case c.tq.specHead > c.tq.specTail || c.tq.commHead > c.tq.specHead:
		return breach("TQ pointers out of order: comm %d, head %d, tail %d",
			c.tq.commHead, c.tq.specHead, c.tq.specTail)
	case c.tq.length() > c.tq.size:
		return breach("TQ occupancy %d exceeds size %d", c.tq.length(), c.tq.size)
	case c.vq.specHead > c.vq.specTail || c.vq.commHead > c.vq.specHead:
		return breach("VQ pointers out of order: comm %d, head %d, tail %d",
			c.vq.commHead, c.vq.specHead, c.vq.specTail)
	case c.vq.length() > c.vq.size:
		return breach("VQ occupancy %d exceeds size %d", c.vq.length(), c.vq.size)
	case c.flHead > c.flTail || int(c.flTail-c.flHead) > c.cfg.NumPhysRegs:
		return breach("freelist pointers out of order: head %d, tail %d, regs %d",
			c.flHead, c.flTail, c.cfg.NumPhysRegs)
	case c.robHead > c.robTail || c.robCount() > c.cfg.ROBSize:
		return breach("ROB pointers out of order: head %d, tail %d, size %d",
			c.robHead, c.robTail, c.cfg.ROBSize)
	case c.fqTail < c.robTail || uint64(len(c.rob)) < c.fqTail-c.robHead:
		return breach("front-end queue pointers out of order: robHead %d, robTail %d, fqTail %d",
			c.robHead, c.robTail, c.fqTail)
	case c.usedCkpts < 0 || c.usedCkpts > c.cfg.NumCheckpoints:
		return breach("checkpoint count %d outside [0,%d]", c.usedCkpts, c.cfg.NumCheckpoints)
	case c.iqLen < 0 || c.iqLen > c.cfg.IQSize:
		return breach("IQ occupancy %d outside [0,%d]", c.iqLen, c.cfg.IQSize)
	case c.lqCount < 0 || c.lqCount > c.cfg.LQSize:
		return breach("LQ occupancy %d outside [0,%d]", c.lqCount, c.cfg.LQSize)
	case c.sqHead > c.sqTail || int(c.sqTail-c.sqHead) > c.cfg.SQSize:
		return breach("SQ pointers out of order: head %d, tail %d, size %d",
			c.sqHead, c.sqTail, c.cfg.SQSize)
	}
	return nil
}
