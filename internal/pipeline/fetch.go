package pipeline

import (
	"slices"

	"cfd/internal/config"
	"cfd/internal/core"
	"cfd/internal/energy"
	"cfd/internal/isa"
	"cfd/internal/prog"
)

// fetch models the fetch unit: up to FetchWidth instructions per cycle, one
// taken control transfer per cycle, direction prediction (or queue
// resolution for CFD pops), BTB lookups with a one-cycle misfetch penalty
// for taken branches that miss, and the CFD fetch-stage machinery — BQ pop
// resolution / speculative pops, BQ-full push stalls, TQ pops into the TCR,
// and TCR-driven looping.
func (c *Core) fetch() error {
	if c.haltFetched || c.now < c.fetchStallTill {
		return nil
	}
	capFQ := c.cfg.FetchWidth * (int(c.feDelay) + 2)
	for slots := c.cfg.FetchWidth; slots > 0; slots-- {
		if c.fqLen() >= capFQ {
			break
		}
		in := c.prog.At(c.fetchPC)

		// Build the uop in place in the rob-ring slot it will occupy:
		// clear it, then store the fields (a composite literal would be
		// built on the stack and copied). fqTail only advances if the
		// fetch sticks, so a stall simply abandons the slot.
		u := c.robAt(c.fqTail)
		*u = uop{}
		u.seq, u.pc, u.inst = c.seq, c.fetchPC, in
		u.readyAt, u.fetchAt = c.now+c.feDelay, c.now
		u.pdst, u.psrc1, u.psrc2, u.psrc3 = noReg, noReg, noReg, noReg
		u.pold, u.vqSrcPreg = noReg, noReg
		u.bqIdx, u.tqIdx, u.vqIdx = -1, -1, -1
		u.port, u.mulDiv = portFor(in.Op)
		next := c.fetchPC + 1
		redirect := false
		stall := false

		switch op := in.Op; {
		case isCtxSwitch(op):
			// Queue save/restore serializes: drain, apply
			// architecturally, charge the cracked-sequence latency.
			st, err := c.fetchCtxSwitch(u)
			if err != nil {
				return err
			}
			if st {
				stall = true
				break
			}

		case op == isa.HALT:
			u.isHalt = true
			c.haltFetched = true

		case op == isa.J:
			u.actTaken, u.actTarget = true, in.Target(c.fetchPC)
			u.resolvedFetch = true
			next, redirect = u.actTarget, true

		case op == isa.JAL:
			u.actTaken, u.actTarget = true, in.Target(c.fetchPC)
			u.resolvedFetch = true
			u.rasOldTop = int32(c.ras.Top())
			c.ras.Push(c.fetchPC + 1)
			next, redirect = u.actTarget, true

		case op == isa.JR:
			u.isJR = true
			u.rasOldTop = int32(c.ras.Top())
			if tgt, ok := c.ras.Pop(); ok {
				u.predTarget = tgt
			} else {
				u.predTarget = c.fetchPC + 1
			}
			u.usedPredictor = true
			c.snapshotHist()
			c.btbProbe(u, true)
			next, redirect = u.predTarget, true

		case op == isa.BranchBQ:
			done, st := c.fetchBranchBQ(u)
			if st {
				stall = true
				break
			}
			next, redirect = done, u.predTaken

		case op == isa.BranchTCR:
			u.isCond = true
			u.resolvedFetch = true
			u.oldTCR = c.specTCR
			if c.specTCR != 0 {
				c.specTCR--
				u.predTaken = true
				u.actTaken = true
			}
			u.actTarget = in.Target(c.fetchPC)
			u.predTarget = u.actTarget
			c.snapshotHist()
			c.pred.OnFetchOutcome(c.fetchPC, u.actTaken)
			if u.actTaken {
				c.btbProbe(u, true)
				next, redirect = u.actTarget, true
			} else {
				c.btbProbe(u, false)
			}

		case op == isa.PopTQ, op == isa.PopTQOV:
			if c.tq.specHead == c.tq.specTail {
				// Nothing pushed yet (TQ miss before any push, or a
				// wrong path): stall like a TQ miss.
				c.Stats.TQMissStalls++
				c.cycStall = stallTQMiss
				c.cycStallCtr = &c.Stats.TQMissStalls
				stall = true
				break
			}
			e := c.tq.at(c.tq.specHead)
			if !e.pushed {
				// TQ miss: the chosen policy is to stall fetch until
				// the push executes (§IV-C3).
				c.Stats.TQMissStalls++
				c.cycStall = stallTQMiss
				c.cycStallCtr = &c.Stats.TQMissStalls
				stall = true
				break
			}
			c.Meter.Add(energy.TQAccess, 1)
			u.tqIdx = int64(c.tq.specHead)
			c.tq.specHead++
			u.oldTCR = c.specTCR
			u.resolvedFetch = true
			if op == isa.PopTQOV {
				u.isCond = true
				u.actTarget = in.Target(c.fetchPC)
				u.predTarget = u.actTarget
				if e.overflow {
					c.specTCR = 0
					u.predTaken, u.actTaken = true, true
					c.snapshotHist()
					c.pred.OnFetchOutcome(c.fetchPC, true)
					c.btbProbe(u, true)
					next, redirect = u.actTarget, true
				} else {
					c.specTCR = uint64(e.count)
					c.snapshotHist()
					c.pred.OnFetchOutcome(c.fetchPC, false)
					c.btbProbe(u, false)
				}
			} else {
				if e.overflow {
					return c.queueFault(c.fetchPC, &core.ViolationError{
						Queue: "TQ", Op: "pop_tq",
						Why: "entry overflow bit set (program must use pop_tq_ov)",
					})
				}
				c.specTCR = uint64(e.count)
			}

		case op == isa.PushBQ:
			if c.bq.length() >= c.bq.size {
				// Architectural BQ full: stall fetch until a pop
				// retires (§III-C3).
				c.Stats.BQFullStalls++
				c.cycStall = stallBQFull
				c.cycStallCtr = &c.Stats.BQFullStalls
				stall = true
				break
			}
			c.Meter.Add(energy.BQAccess, 1)
			u.bqIdx = int64(c.bq.specTail)
			e := c.bq.at(c.bq.specTail)
			*e = bqEntryHW{}
			c.bq.specTail++

		case op == isa.PushTQ:
			if c.tq.length() >= c.tq.size {
				c.Stats.BQFullStalls++
				c.cycStall = stallTQMiss
				c.cycStallCtr = &c.Stats.BQFullStalls
				stall = true
				break
			}
			c.Meter.Add(energy.TQAccess, 1)
			u.tqIdx = int64(c.tq.specTail)
			e := c.tq.at(c.tq.specTail)
			*e = tqEntryHW{}
			c.tq.specTail++

		case op == isa.MarkBQ:
			u.oldMark, u.oldMarkOK = c.bq.specMark, c.bq.markOK
			c.bq.specMark, c.bq.markOK = c.bq.specTail, true

		case op == isa.ForwardBQ:
			c.Meter.Add(energy.BQAccess, 1)
			u.fwdFrom = c.bq.specHead
			u.fwdHadMark = c.bq.markOK
			if c.bq.markOK && c.bq.specMark > c.bq.specHead {
				c.bq.specHead = c.bq.specMark
			}
			u.fwdTo = c.bq.specHead

		case op.IsCondBranch(): // BEQ..BGEU
			u.isCond = true
			u.actTarget = in.Target(c.fetchPC) // filled for convenience; direction at execute
			u.predTarget = u.actTarget
			taken := c.predictCond(u)
			u.predTaken = taken
			c.btbProbe(u, taken)
			if taken {
				next, redirect = u.predTarget, true
			}
		}

		if stall {
			break
		}
		c.fqTail++
		c.seq++
		c.Stats.Fetched++
		c.Meter.Add(energy.Fetch, 1)
		c.Meter.Add(energy.Decode, 1)
		c.fetchPC = next
		if u.isHalt {
			break
		}
		if redirect {
			break // one taken control transfer per fetch cycle
		}
	}
	return nil
}

// predictCond produces the fetch-time direction for a predictor-predicted
// conditional branch, consulting the oracle when it covers this PC.
func (c *Core) predictCond(u *uop) bool {
	pc := u.pc
	if c.oracle != nil && (c.perfectBP || c.oracle.Covers(pc)) {
		if taken, ok := c.oracle.Next(pc); ok {
			u.usedOracle = true
			u.resolvedFetch = true
			u.actTaken = taken
			c.snapshotHist()
			c.pred.OnFetchOutcome(pc, taken)
			return taken
		}
	}
	c.Meter.Add(energy.PredictorAccess, 1)
	u.usedPredictor = true
	taken := c.lookupPred(pc)
	c.pred.OnFetchOutcome(pc, taken)
	return taken
}

// lookupPred predicts the branch being fetched: the predictor writes its
// Lookup and a history snapshot straight into the uop's bp slot. It
// returns the predicted direction.
func (c *Core) lookupPred(pc uint64) bool {
	bp := c.bpAt(c.fqTail)
	c.pred.Lookup(pc, &bp.lookup)
	c.pred.Snapshot(&bp.hist)
	return bp.lookup.Pred
}

// snapshotHist records the predictor's speculative history in the bp slot
// of the uop being fetched, for a recovery anchored at it to restore.
func (c *Core) snapshotHist() { c.pred.Snapshot(&c.bpAt(c.fqTail).hist) }

// fetchBranchBQ handles a BranchBQ pop at fetch: non-speculative resolution
// when the predicate has been pushed, otherwise the configured BQ-miss
// policy (speculative pop with mandatory checkpoint, or fetch stall).
// It returns the next fetch PC and whether fetch must stall this cycle.
func (c *Core) fetchBranchBQ(u *uop) (next uint64, stall bool) {
	u.isCond = true
	u.actTarget = u.inst.Target(u.pc)
	u.predTarget = u.actTarget
	if c.bq.specHead == c.bq.specTail {
		// No in-flight or queued predicate. On a correct path this is
		// an ordering-rule violation; on a wrong path it is harmless.
		// Treat it as a BQ miss.
		return c.bqMiss(u)
	}
	c.Meter.Add(energy.BQAccess, 1)
	e := c.bq.at(c.bq.specHead)
	if e.pushed {
		// Timely, non-speculative branching: the predicate is here.
		u.resolvedFetch = true
		u.actTaken = e.pred
		u.predTaken = e.pred
		u.bqIdx = int64(c.bq.specHead)
		c.bq.specHead++
		c.snapshotHist()
		c.pred.OnFetchOutcome(u.pc, e.pred)
		c.btbProbe(u, e.pred)
		if e.pred {
			return u.actTarget, false
		}
		return u.pc + 1, false
	}
	return c.bqMiss(u)
}

// Reduce returns cfg with the fields a core running p never reads set to
// their zero values, so two configs that reduce alike run p to the same
// Stats, energy and memory. Name only labels New's validation errors.
// BQMissPolicy is read only by bqMiss, which only a fetched BranchBQ
// reaches, and fetch never leaves p's instructions (prog.Program.At is
// HALT outside them).
func Reduce(cfg config.Core, p *prog.Program) config.Core {
	cfg.Name = ""
	if !slices.ContainsFunc(p.Insts, func(in isa.Inst) bool { return in.Op == isa.BranchBQ }) {
		cfg.BQMissPolicy = 0
	}
	return cfg
}

func (c *Core) bqMiss(u *uop) (next uint64, stall bool) {
	if c.cfg.BQMissPolicy == config.StallFetch {
		c.Stats.BQMissStalls++
		c.cycStall = stallBQMiss
		c.cycStallCtr = &c.Stats.BQMissStalls
		return 0, true
	}
	// Speculative pop: predict the predicate with the branch predictor and
	// leave a claim in the BQ entry for the late push to check (§III-C2).
	c.Meter.Add(energy.PredictorAccess, 1)
	u.specPop = true
	u.usedPredictor = true
	u.predTaken = c.lookupPred(u.pc)
	c.pred.OnFetchOutcome(u.pc, u.predTaken)
	if c.bq.specHead < c.bq.specTail {
		e := c.bq.at(c.bq.specHead)
		e.popped = true
		e.predPred = u.predTaken
		e.popSeq = u.seq
		e.popRob = ^uint64(0) // filled at rename
		u.bqIdx = int64(c.bq.specHead)
		c.bq.specHead++
		c.Meter.Add(energy.BQAccess, 1)
	}
	c.btbProbe(u, u.predTaken)
	if u.predTaken {
		return u.actTarget, false
	}
	return u.pc + 1, false
}

// btbProbe models the BTB access made for every conditional branch and JR
// in the fetch bundle. A taken transfer that misses costs a one-cycle
// misfetch penalty (§III-C4); misfetch repair at decode installs the entry,
// so the penalty is paid once per cold or evicted branch.
func (c *Core) btbProbe(u *uop, taken bool) {
	c.Meter.Add(energy.BTBAccess, 1)
	_, hit := c.btb.Lookup(u.pc)
	if taken && !hit {
		c.Stats.BTBMisfetches++
		c.fetchStallTill = c.now + 2
		c.btb.Insert(u.pc, u.predTarget)
	}
}
