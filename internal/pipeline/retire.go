package pipeline

import (
	"cfd/internal/core"
	"cfd/internal/energy"
	"cfd/internal/isa"
)

// retire commits up to RetireWidth executed instructions in order: stores
// write memory and access the cache, queue commit pointers advance (the
// architectural net_push_ctr bookkeeping of §III-C3), the AMT and freelist
// track committed mappings, and the predictor/confidence estimator train.
// A mispredicted branch that could not take a checkpoint performs its
// recovery here, from committed state — the timing penalty of checkpoint
// exhaustion.
func (c *Core) retire() error {
	for n := 0; n < c.cfg.RetireWidth; n++ {
		if c.robHead == c.robTail {
			return nil
		}
		u := c.robAt(c.robHead)
		if !u.executed {
			return nil
		}
		if u.retireRecover && !u.recovered {
			newPC := u.actTarget
			if u.isCond && !u.actTaken {
				newPC = u.pc + 1
			}
			c.Stats.RetireRecoveries++
			c.pred.Restore(&c.bpAt(c.robHead).hist)
			if u.isCond {
				c.pred.OnFetchOutcome(u.pc, u.actTaken)
			}
			c.recoverAfter(u.seq, newPC)
			c.noteRecovery(u.seq, u.srcLevel, u.specPop)
			c.Meter.Add(energy.CkptRestore, 1)
			u.recovered = true
		}

		op := u.inst.Op
		switch {
		case u.isHalt:
			c.done = true
		case u.isStore:
			c.mem.Write(u.addr, int(u.storeSize), u.storeData)
			if u.addr < addrLimit {
				_, lvl := c.hier.Access(u.addr, c.now)
				c.chargeMemEnergy(lvl)
			}
			c.sqHead++
		case op == isa.BranchBQ:
			if u.bqIdx < 0 {
				// A speculative pop that never claimed an entry reached
				// retirement: the program popped more than it pushed.
				return c.queueFault(u.pc, &core.ViolationError{
					Queue: "BQ", Op: "branch_bq",
					Why: "retired with no pushed predicate (push/pop ordering violation)",
				})
			}
			c.bq.commHead = uint64(u.bqIdx) + 1
			c.Stats.BQPops++
			if u.specPop {
				c.Stats.BQMisses++
				if u.mispredict {
					c.Stats.BQLateMispredict++
				}
			} else {
				c.Stats.BQResolvedAtFetch++
			}
		case op == isa.ForwardBQ:
			if !u.fwdHadMark {
				// Retired (hence correct-path) forward with no preceding
				// mark — the same violation the emulator reports.
				return c.queueFault(u.pc, &core.ViolationError{
					Queue: "BQ", Op: "forward", Why: "no preceding mark",
				})
			}
			if u.fwdTo > c.bq.commHead {
				c.bq.commHead = u.fwdTo
			}
		case op == isa.PopTQ, op == isa.PopTQOV:
			c.tq.commHead = uint64(u.tqIdx) + 1
			c.Stats.TQPops++
		case op == isa.BranchTCR:
			c.Stats.TCRBranches++
		case op == isa.PopVQ:
			// The push's physical register is freed when the pop that
			// references it retires (§IV-B2).
			c.freePreg(u.vqSrcPreg)
			c.vq.commHead = uint64(u.vqIdx) + 1
		}

		if op.WritesRd() && u.inst.Rd != isa.Zero && op != isa.PushVQ {
			c.amt[u.inst.Rd] = u.pdst
			if u.pold >= 0 {
				c.freePreg(u.pold)
			}
		}
		if u.isLoad {
			c.lqCount--
		}

		if u.isCond {
			c.Stats.CondBranches++
			bs := c.Stats.PerBranch[u.pc]
			if bs == nil {
				bs = &BranchStat{}
				c.Stats.PerBranch[u.pc] = bs
			}
			bs.Execs++
			if u.actTaken {
				bs.Taken++
			}
			if u.usedPredictor {
				c.pred.Train(u.pc, &c.bpAt(c.robHead).lookup, u.actTaken)
				c.conf.Update(u.pc, u.actTaken == u.predTaken)
			}
			if u.mispredict {
				c.Stats.Mispredicts++
				c.Stats.MispredByLevel[u.srcLevel]++
				bs.Mispredicts++
			}
		} else if u.isJR && u.mispredict {
			c.Stats.Mispredicts++
			c.Stats.MispredByLevel[u.srcLevel]++
		}

		if u.hasCkpt {
			c.usedCkpts--
			u.hasCkpt = false
		}

		c.traceRecord(u)
		c.diag.Record(u.pc, u.inst)
		c.Meter.Add(energy.Retire, 1)
		c.Stats.Retired++
		c.cycRetired++
		if cfdOverheadOp(op) {
			c.cycOverhead++
		}
		if c.shadow.active && u.seq > c.shadow.anchor {
			// The corrected path has reached retirement: the recovery
			// refill is over.
			c.shadow.active = false
		}
		c.lastRetireCycle = c.now
		c.robHead++
		if c.done {
			return nil
		}
	}
	return nil
}
