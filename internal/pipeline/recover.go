package pipeline

import "cfd/internal/isa"

// recoverAfter squashes every uop younger than anchorSeq — in the front-end
// queue and in the window — undoing, in reverse program order, all of their
// speculative effects: rename mappings and freelist allocations, VQ renamer
// pointers, BQ/TQ pointers and popped bits, the TCR, the RAS, checkpoint
// tokens, oracle cursors, and load/store queue occupancy. Fetch restarts at
// newPC next cycle. Callers restore predictor history (it is anchored at
// the recovering branch) before calling.
//
// This walk implements the paper's recovery semantics (§III-C4): restore
// BQ head/tail/mark from the checkpoint, clear popped bits between them,
// and deduct squashed pushes from pending_push_ctr — expressed here through
// the monotonic pointer representation. Squashed uops still waiting in the
// issue queue leave it here.
func (c *Core) recoverAfter(anchorSeq, newPC uint64) {
	// Front-end queue first: its uops are the youngest.
	for c.fqTail > c.robTail {
		u := c.robAt(c.fqTail - 1)
		if u.seq <= anchorSeq {
			break
		}
		c.undoFetchSide(u)
		c.fqTail--
		c.Stats.SquashedUops++
	}

	// Window walk, youngest to oldest. It only squashes when the anchor
	// is at or below robTail, i.e. the front-end region drained entirely,
	// so fqTail follows robTail down.
	for c.robTail > c.robHead {
		u := c.robAt(c.robTail - 1)
		if u.seq <= anchorSeq {
			break
		}
		c.undoFetchSide(u)
		c.undoRenameSide(u)
		if u.inIQ && !u.issued {
			c.unready(c.robTail - 1)
			c.iqLen--
		}
		u.squashed = true
		c.traceRecord(u)
		c.Stats.SquashedUops++
		c.robTail--
		c.fqTail = c.robTail
	}

	c.pred.OnSquash()
	c.fetchPC = newPC
	c.fetchStallTill = c.now + 1
}

// undoFetchSide reverses a uop's fetch-stage effects on the front-end
// state. Called in reverse program order, so simple pointer restores
// compose correctly.
func (c *Core) undoFetchSide(u *uop) {
	switch u.inst.Op {
	case isa.PushBQ:
		if u.bqIdx >= 0 {
			c.bq.specTail = uint64(u.bqIdx)
		}
	case isa.BranchBQ:
		if u.bqIdx >= 0 {
			c.bq.specHead = uint64(u.bqIdx)
			c.bq.at(uint64(u.bqIdx)).popped = false
		}
	case isa.MarkBQ:
		c.bq.specMark, c.bq.markOK = u.oldMark, u.oldMarkOK
	case isa.ForwardBQ:
		c.bq.specHead = u.fwdFrom
	case isa.PushTQ:
		if u.tqIdx >= 0 {
			c.tq.specTail = uint64(u.tqIdx)
		}
	case isa.PopTQ, isa.PopTQOV:
		if u.tqIdx >= 0 {
			c.tq.specHead = uint64(u.tqIdx)
		}
		c.specTCR = u.oldTCR
	case isa.BranchTCR:
		c.specTCR = u.oldTCR
	case isa.JAL, isa.JR:
		c.ras.SetTop(int(u.rasOldTop))
	case isa.HALT:
		c.haltFetched = false
	}
	if u.usedOracle && c.oracle != nil {
		c.oracle.Undo(u.pc)
	}
}

// undoRenameSide reverses a uop's rename-stage effects. Reverse program
// order makes the ring-freelist head rollback exact: allocations are
// returned in the opposite order they were taken, and the ring still holds
// the same register numbers in those slots.
func (c *Core) undoRenameSide(u *uop) {
	op := u.inst.Op
	if op == isa.PushVQ {
		c.vq.specTail = uint64(u.vqIdx)
	}
	if op == isa.PopVQ {
		c.vq.specHead = uint64(u.vqIdx)
	}
	if u.pdst >= 0 {
		c.flHead--
	}
	if op.WritesRd() && u.inst.Rd != isa.Zero && op != isa.PushVQ {
		c.rmt[u.inst.Rd] = u.pold
	}
	if u.isLoad {
		c.lqCount--
	}
	if u.isStore {
		c.sqTail = u.sqPos
	}
	if u.hasCkpt {
		c.usedCkpts--
		u.hasCkpt = false
	}
}
