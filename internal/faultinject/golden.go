package faultinject

import (
	"fmt"
	"slices"

	"cfd/internal/core"
	"cfd/internal/emu"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// goldenBudget bounds the golden run; victim programs are known-good, so
// hitting it is an infrastructure failure, reported as an error.
const goldenBudget = 50_000_000

// stepRec is one retired instruction of the golden stream, with everything
// the lockstep checker compares and the cumulative queue pop counts needed
// to map an architectural entry index to its in-queue position at any step.
type stepRec struct {
	pc    uint64
	addr  uint64
	val   uint64 // retired result: Rd writeback, store data, pushed value, or TCR
	op    isa.Op
	taken bool

	bqPops, vqPops, tqPops uint32
}

// Entry fates.
const (
	fateResident  = uint8(iota) // still queued at halt
	fateConsumed                // popped by a consuming instruction
	fateDiscarded               // bulk-popped by ForwardBQ
)

// entryInfo is the life of one architectural queue entry in the golden run,
// indexed by its cumulative push number.
type entryInfo struct {
	pushStep int
	endStep  int // consume/discard step; -1 while resident
	fate     uint8
	consumer isa.Op
	val      uint64 // pushed value (BQ: raw source register, TQ: trip count)
}

// golden is one victim's reference run.
type golden struct {
	name string
	prog *prog.Program
	mem  *mem.Memory // initial memory; nil for programs that build their own

	steps               []stepRec
	bqEnt, vqEnt, tqEnt []entryInfo
	saveStep            map[isa.Op]int // step index of each Save instruction
	endRegs             [isa.NumRegs]uint64
	endPC, endTCR       uint64
	endBQ               []bool
	endVQ               []uint64
	endTQ               []core.TQEntry
}

func cloneMem(m *mem.Memory) *mem.Memory {
	if m == nil {
		return nil
	}
	return m.Clone()
}

// stepVal extracts the retired result value the lockstep checker compares:
// the destination-register writeback, the store data, the pushed queue
// value, or the TCR for instructions that write it. Reading registers after
// the step is safe — stores and pushes do not modify their sources.
func stepVal(m *emu.Machine, in isa.Inst) uint64 {
	switch op := in.Op; {
	case op == isa.PopTQ || op == isa.PopTQOV || op == isa.BranchTCR:
		return m.TCR
	case op == isa.PushBQ || op == isa.PushVQ || op == isa.PushTQ:
		return m.Regs[in.Rs1]
	case op == isa.SD || op == isa.SW || op == isa.SH || op == isa.SB:
		return m.Regs[in.Rs2]
	case op.WritesRd():
		return m.Regs[in.Rd]
	}
	return 0
}

// runGolden executes the victim once, recording the retired stream, entry
// fates, and final architectural state.
func runGolden(name string, p *prog.Program, m *mem.Memory) (*golden, error) {
	g := &golden{name: name, prog: p, mem: m, saveStep: make(map[isa.Op]int)}
	var machine *emu.Machine

	var prevBQPush, prevBQPop, prevVQPush, prevVQPop, prevTQPush, prevTQPop uint64
	// A Restore resets the queue counters, invalidating the cumulative
	// entry indexing; fate tracking stops for that queue (the image sites,
	// the only users of restore programs, do not use fates).
	var bqReset, vqReset, tqReset bool

	fates := func(ents *[]entryInfo, reset *bool, pushes, pops, prevPushes, prevPops uint64,
		t int, op isa.Op, val uint64) {
		if *reset {
			return
		}
		if pushes < prevPushes || pops < prevPops ||
			op == isa.RestoreBQ || op == isa.RestoreVQ || op == isa.RestoreTQ {
			*reset = true
			return
		}
		for j := prevPushes; j < pushes; j++ {
			*ents = append(*ents, entryInfo{pushStep: t, endStep: -1, fate: fateResident, val: val})
		}
		for j := prevPops; j < pops; j++ {
			if int(j) >= len(*ents) {
				continue
			}
			e := &(*ents)[j]
			e.endStep = t
			e.consumer = op
			if op == isa.ForwardBQ {
				e.fate = fateDiscarded
			} else {
				e.fate = fateConsumed
			}
		}
	}

	machine = emu.New(p, cloneMem(m),
		emu.WithWatchdog(&fault.Watchdog{MaxCycles: goldenBudget}),
		emu.WithTracer(emu.TracerFunc(func(ev emu.Event) {
			t := len(g.steps)
			op := ev.Inst.Op
			bqPush, bqPop := machine.BQ.Counters()
			vqPush, vqPop := machine.VQ.Counters()
			tqPush, tqPop := machine.TQ.Counters()
			fates(&g.bqEnt, &bqReset, bqPush, bqPop, prevBQPush, prevBQPop, t, op, stepVal(machine, ev.Inst))
			fates(&g.vqEnt, &vqReset, vqPush, vqPop, prevVQPush, prevVQPop, t, op, stepVal(machine, ev.Inst))
			fates(&g.tqEnt, &tqReset, tqPush, tqPop, prevTQPush, prevTQPop, t, op, stepVal(machine, ev.Inst))
			prevBQPush, prevBQPop = bqPush, bqPop
			prevVQPush, prevVQPop = vqPush, vqPop
			prevTQPush, prevTQPop = tqPush, tqPop
			if op == isa.SaveBQ || op == isa.SaveVQ || op == isa.SaveTQ {
				g.saveStep[op] = t
			}
			g.steps = append(g.steps, stepRec{
				pc: ev.PC, addr: ev.Addr, val: stepVal(machine, ev.Inst),
				op: op, taken: ev.Taken,
				bqPops: uint32(bqPop), vqPops: uint32(vqPop), tqPops: uint32(tqPop),
			})
		})))
	if err := machine.Run(0); err != nil {
		return nil, fmt.Errorf("golden run of %s: %w", name, err)
	}
	g.endRegs = machine.Regs
	g.endPC = machine.PC
	g.endTCR = machine.TCR
	g.endBQ = machine.BQ.Contents()
	g.endVQ = machine.VQ.Contents()
	g.endTQ = machine.TQ.Contents()
	return g, nil
}

// lastStep returns the index of the final retired instruction.
func (g *golden) lastStep() int { return len(g.steps) - 1 }

// victimOutcome is the raw result of one corrupted re-run.
type victimOutcome struct {
	applied   bool  // the injector actually mutated state
	err       error // fault returned by the run, nil on clean halt
	divergeAt int   // first lockstep mismatch, -1 if none
	retired   int   // victim stream length
	endDiff   bool  // final architectural state differs from golden
}

// runVictim re-executes the golden program with inject applied right after
// retired-instruction injectStep, lockstep-comparing every retired
// instruction against the golden stream. The watchdog budget is twice the
// golden instruction count, so corruption-induced livelock is caught.
func runVictim(g *golden, injectStep int, inject func(m *emu.Machine) bool) victimOutcome {
	out := victimOutcome{divergeAt: -1}
	idx := 0
	var machine *emu.Machine
	machine = emu.New(g.prog, cloneMem(g.mem),
		emu.WithWatchdog(&fault.Watchdog{MaxCycles: 2*uint64(len(g.steps)) + 1024}),
		emu.WithTracer(emu.TracerFunc(func(ev emu.Event) {
			if idx < len(g.steps) {
				rec := g.steps[idx]
				if out.divergeAt < 0 &&
					(rec.pc != ev.PC || rec.op != ev.Inst.Op || rec.taken != ev.Taken ||
						rec.addr != ev.Addr || rec.val != stepVal(machine, ev.Inst)) {
					out.divergeAt = idx
				}
			} else if out.divergeAt < 0 {
				out.divergeAt = idx // ran past the golden stream
			}
			if idx == injectStep {
				out.applied = inject(machine)
			}
			idx++
		})))
	out.err = machine.Run(0)
	out.retired = idx
	if out.err == nil {
		out.endDiff = machine.Regs != g.endRegs ||
			machine.PC != g.endPC || machine.TCR != g.endTCR ||
			!slices.Equal(machine.BQ.Contents(), g.endBQ) ||
			!slices.Equal(machine.VQ.Contents(), g.endVQ) ||
			!slices.Equal(machine.TQ.Contents(), g.endTQ)
	}
	return out
}
