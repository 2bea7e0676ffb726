package xform

import (
	"fmt"

	"cfd/internal/isa"
	"cfd/internal/prog"
)

// NestedKernel is a two-level guarded loop — the "complex scenario" the
// paper's multi-level decoupling extension targets (§I, and the structure
// of the astar region #1 case study, Fig 22):
//
//	loop:
//	    OuterSlice                 // computes OuterPred
//	    if OuterPred == 0 goto skip
//	    InnerSlice                 // only safe under OuterPred; computes InnerPred
//	    if InnerPred == 0 goto skip
//	    Update                     // optional monotone update (map[x] = fill)
//	    CD
//	    Exit                       // optional: computes ExitPred
//	    if ExitPred != 0 goto done
//	skip:
//	    Step; Counter--; loop
//	done:
//	Fini; halt
//
// The transformation decouples into three loops sharing the BQ with two
// predicate streams: loop 1 pushes the outer predicates; loop 2 — guarded
// by the popped outer predicate — evaluates the inner slice and pushes the
// combined predicate (0 on the unguarded path); loop 3 guards the CD with
// the combined predicate. Chunks are half the BQ size because the two
// streams coexist.
//
// With an Update block the guarded region itself rewrites the data the
// outer slice reads (astar's map-fill). That is sound to decouple only
// when the update is *monotone* — it can falsify the outer predicate for
// later iterations but never make it true (MonotoneUpdate is the caller's
// assertion of that contract). Loop 2 then re-evaluates the full outer
// slice for fresh values under the stale BQ guard (stale-false implies
// fresh-false), combines both predicates, and applies the update
// if-converted under the combined predicate.
//
// With an Exit block the region can terminate early; loop 2 evaluates the
// exit alongside the combined predicate to stop generating, the streams
// are bounded by BQ marks, and both break paths discard leftovers with a
// Forward bulk-pop (§IV-A).
type NestedKernel struct {
	Name string

	Init       []isa.Inst
	OuterSlice []isa.Inst
	InnerSlice []isa.Inst
	Update     []isa.Inst // optional; requires MonotoneUpdate
	CD         []isa.Inst
	Exit       []isa.Inst // optional early-exit check; requires ExitPred
	Step       []isa.Inst
	Fini       []isa.Inst // epilogue before halt

	OuterPred isa.Reg
	InnerPred isa.Reg
	ExitPred  isa.Reg
	Counter   isa.Reg
	// Scratch: two for strip-mining, one per induction register, one for
	// the combined predicate (Update/Exit kernels), one for the update
	// store select (Update kernels).
	Scratch []isa.Reg
	NoAlias bool
	// MonotoneUpdate asserts that Update's stores only ever falsify the
	// outer predicate for later iterations, never truthify it.
	MonotoneUpdate bool

	// OuterNote/InnerNote/ExitNote annotate the three branches for the
	// classification study.
	OuterNote string
	InnerNote string
	ExitNote  string
}

// KernelName implements Form.
func (k *NestedKernel) KernelName() string { return k.Name }

// Transforms implements Form.
func (k *NestedKernel) Transforms() []Transform {
	return []Transform{TBase, TCFD, TDFD, TCFDDFD}
}

// Apply implements Form.
func (k *NestedKernel) Apply(t Transform, p Params) (*prog.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch t {
	case TBase:
		return k.Base()
	case TCFD:
		return k.CFD(p)
	case TDFD:
		return k.DFD(p)
	case TCFDDFD:
		return k.CFDDFD(p)
	case TCFDPlus:
		return nil, fmt.Errorf("xform %s: %s: the two-level form communicates by recomputation across three loops; the value queue applies to single-level kernels", k.Name, t)
	case THoist, TIfConvert:
		return nil, fmt.Errorf("xform %s: %s applies to single-level kernels only", k.Name, t)
	case TCFDTQ, TCFDBQ, TCFDBQTQ:
		return nil, fmt.Errorf("xform %s: %s requires a loop-branch kernel (LoopKernel, §IV-C/Fig 28)", k.Name, t)
	}
	return nil, fmt.Errorf("xform %s: unknown transform %q", k.Name, t)
}

func (k *NestedKernel) hasUpdate() bool { return len(k.Update) > 0 }
func (k *NestedKernel) hasExit() bool   { return len(k.Exit) > 0 || k.ExitPred != 0 }

// freshOuter reports whether loop 2 must re-evaluate the full outer slice
// for fresh values: required whenever an Update can change them or an Exit
// must be computed ahead of the CD stream.
func (k *NestedKernel) freshOuter() bool { return k.hasUpdate() || k.hasExit() }

// flat lowers the nested kernel to a Kernel-shaped view for the shared
// structural validation and classification (the combined slice is
// OuterSlice+InnerSlice with the inner predicate as the overall one;
// conservative but sufficient). Update is deliberately absent: its
// intentional store-to-slice-data aliasing is sanctioned by the
// MonotoneUpdate contract, not by NoAlias.
func (k *NestedKernel) flat() *Kernel {
	return &Kernel{
		Name:     k.Name,
		Init:     k.Init,
		Slice:    append(append([]isa.Inst{}, k.OuterSlice...), k.InnerSlice...),
		CD:       k.CD,
		Exit:     k.Exit,
		Step:     k.Step,
		Fini:     k.Fini,
		Pred:     k.InnerPred,
		ExitPred: k.ExitPred,
		Counter:  k.Counter,
		Scratch:  k.Scratch,
		NoAlias:  k.NoAlias,
	}
}

// Validate checks the kernel's structural requirements.
func (k *NestedKernel) Validate() error {
	fl := k.flat()
	if err := fl.Validate(); err != nil {
		return err
	}
	if !blockWrites(k.OuterSlice).has(k.OuterPred) {
		return fmt.Errorf("xform %s: OuterSlice does not write the outer predicate %s", k.Name, k.OuterPred)
	}
	if k.hasUpdate() != k.MonotoneUpdate {
		return fmt.Errorf("xform %s: Update and MonotoneUpdate must be set together — a mid-loop update is sound only when it monotonically falsifies the outer predicate", k.Name)
	}
	if err := straightLine(k.Update); err != nil {
		return fmt.Errorf("xform %s: Update: %w", k.Name, err)
	}
	inductions := inductionRegs(k.Step)
	need := 2 + len(inductions)
	if k.freshOuter() {
		need++ // combined predicate
	}
	if k.hasUpdate() {
		need++ // update store select
	}
	if len(k.Scratch) < need {
		return fmt.Errorf("xform %s: need %d scratch registers, have %d", k.Name, need, len(k.Scratch))
	}
	if k.hasUpdate() {
		wU := blockWrites(k.Update)
		var state regSet
		state.add(k.OuterPred)
		state.add(k.InnerPred)
		state.add(k.Counter)
		if k.ExitPred != 0 {
			state.add(k.ExitPred)
		}
		for _, r := range inductions {
			state.add(r)
		}
		if wU.intersects(state) {
			return fmt.Errorf("xform %s: Update writes predicate or induction state", k.Name)
		}
		for name, blk := range map[string][]isa.Inst{
			"OuterSlice": k.OuterSlice, "InnerSlice": k.InnerSlice,
			"CD": k.CD, "Exit": k.Exit, "Step": k.Step,
		} {
			if wU.intersects(upwardExposed(blk)) {
				return fmt.Errorf("xform %s: Update clobbers a register %s reads live-in — the unguarded if-converted update would corrupt it", k.Name, name)
			}
		}
		uU := blockReads(k.Update) | wU
		for _, r := range k.Scratch {
			if uU.has(r) {
				return fmt.Errorf("xform %s: scratch register %s is used by Update", k.Name, r)
			}
		}
	}
	if k.freshOuter() {
		if upwardExposed(k.OuterSlice).intersects(blockWrites(k.OuterSlice) | blockWrites(k.InnerSlice)) {
			return fmt.Errorf("xform %s: the decoupled mid loop re-evaluates the outer slice for fresh values, but it is not recomputable from inductions alone", k.Name)
		}
		if upwardExposed(k.InnerSlice).intersects(blockWrites(k.InnerSlice)) {
			return fmt.Errorf("xform %s: inner slice carries its own state across iterations", k.Name)
		}
	}
	if k.hasExit() {
		if upwardExposed(k.Exit).intersects(blockWrites(k.CD)) {
			return fmt.Errorf("xform %s: the exit predicate depends on CD results; the mid loop cannot evaluate it ahead of the CD stream", k.Name)
		}
	}
	// Loop 2's lighter (no fresh-outer) scheme recomputes only the
	// outer-slice values the inner slice consumes; they must be derivable
	// from inductions.
	needs := upwardExposed(k.InnerSlice) & blockWrites(k.OuterSlice)
	if needs != 0 {
		re := backwardSlice(k.OuterSlice, needs)
		if upwardExposed(re).intersects(blockWrites(k.OuterSlice)) {
			return fmt.Errorf("xform %s: inner slice depends on outer-slice state that cannot be recomputed", k.Name)
		}
	}
	return nil
}

// Classify performs the §II-B analysis on the flattened view; a nested
// kernel that passes is *partially* separable — the outer branch alone
// can be decoupled exactly, the combined branch via the two-stream
// scheme.
func (k *NestedKernel) Classify() (prog.BranchClass, error) {
	if cls, err := k.flat().Classify(); cls != prog.SeparableTotal {
		return cls, err
	}
	return prog.SeparablePartial, nil
}

func (k *NestedKernel) requireSeparable() error {
	cls, err := k.Classify()
	if cls == prog.SeparablePartial {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("xform %s: branch classified %v, need %v for multi-level decoupling", k.Name, cls, prog.SeparablePartial)
	}
	return err
}

func (k *NestedKernel) finish(b *prog.Builder) {
	if k.hasExit() {
		b.Label("done")
	}
	emitBlock(b, k.Fini)
	b.Halt()
}

// emitBaseLoop emits the untransformed nested loop over the counter
// register, branching to exitLabel on early exit.
func (k *NestedKernel) emitBaseLoop(b *prog.Builder, counter isa.Reg, prefix, exitLabel string) {
	b.Label(prefix + "loop")
	emitBlock(b, k.OuterSlice)
	if k.OuterNote != "" {
		b.Note(k.OuterNote, prog.SeparablePartial)
	}
	b.Branch(isa.BEQ, k.OuterPred, isa.Zero, prefix+"skip")
	emitBlock(b, k.InnerSlice)
	if k.InnerNote != "" {
		b.Note(k.InnerNote, prog.SeparableTotal)
	}
	b.Branch(isa.BEQ, k.InnerPred, isa.Zero, prefix+"skip")
	emitBlock(b, k.Update)
	emitBlock(b, k.CD)
	if k.hasExit() {
		emitBlock(b, k.Exit)
		if k.ExitNote != "" {
			b.Note(k.ExitNote, prog.EasyToPredict)
		}
		b.Branch(isa.BNE, k.ExitPred, isa.Zero, exitLabel)
	}
	b.Label(prefix + "skip")
	emitBlock(b, k.Step)
	b.I(isa.ADDI, counter, counter, -1)
	b.Branch(isa.BNE, counter, isa.Zero, prefix+"loop")
}

// Base emits the untransformed nested loop.
func (k *NestedKernel) Base() (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	k.emitBaseLoop(b, k.Counter, "", "done")
	k.finish(b)
	return b.Build()
}

// CFD emits the three-loop multi-level decoupling.
func (k *NestedKernel) CFD(p Params) (*prog.Program, error) {
	return k.emitCFD(p, false)
}

// CFDDFD emits the combined transformation (Fig 26): each chunk runs the
// DFD prefetch loop first, then the three decoupled loops over the warmed
// data.
func (k *NestedKernel) CFDDFD(p Params) (*prog.Program, error) {
	return k.emitCFD(p, true)
}

func (k *NestedKernel) emitCFD(p Params, withPrefetch bool) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	next := 2 + len(s.shadows)
	var comb, sel isa.Reg
	if k.freshOuter() {
		comb = k.Scratch[next]
		next++
	}
	if k.hasUpdate() {
		sel = k.Scratch[next]
	}

	// Values the inner slice needs from the outer slice (recomputed in
	// loop 2 when the outer slice is not re-run whole) and values the CD
	// and exit check need from either slice (recomputed in loop 3).
	flatSlice := k.flat().Slice
	var reInner []isa.Inst
	if !k.freshOuter() {
		innerNeeds := upwardExposed(k.InnerSlice) & blockWrites(k.OuterSlice)
		reInner = backwardSlice(k.OuterSlice, innerNeeds)
	}
	cdNeeds := (upwardExposed(k.CD) | upwardExposed(k.Exit)) & blockWrites(flatSlice)
	reCD := backwardSlice(flatSlice, cdNeeds)
	if upwardExposed(reCD).intersects(blockWrites(flatSlice)) {
		return nil, fmt.Errorf("xform %s: CD consumes slice-internal state that cannot be recomputed", k.Name)
	}

	emitBlock(b, k.Init)
	s.open(p.dualStreamChunk())
	if withPrefetch {
		s.prefetch(flatSlice)
	}
	// Loop 1: outer predicates (stream 1).
	s.loop("gen", func() {
		emitBlock(b, k.OuterSlice)
		b.PushBQ(k.OuterPred)
	})
	if k.hasExit() {
		// Bound stream 1 so a mid-chunk exit can discard leftovers in
		// bulk; clear the exit predicate so a chunk with no taken
		// iterations cannot see a stale value.
		b.MarkBQ()
		b.Li(k.ExitPred, 0)
	}
	s.rewind()
	// Loop 2: guarded inner evaluation (stream 2). The stale outer
	// predicate from stream 1 is a sound guard: with a monotone update
	// stale-false implies fresh-false, so only the taken path needs the
	// fresh re-evaluation.
	s.loop("mid", func() {
		if k.OuterNote != "" {
			b.Note(k.OuterNote+" (decoupled guard)", prog.SeparablePartial)
		}
		b.BranchBQ("midwork")
		b.PushBQ(isa.Zero)
		b.Jump("midskip")
		b.Label("midwork")
		if k.freshOuter() {
			emitBlock(b, k.OuterSlice)
			emitBlock(b, k.InnerSlice)
			b.R(isa.AND, comb, k.OuterPred, k.InnerPred)
			// The update commits under the combined predicate,
			// if-converted: stores become load/select/store, register
			// writes are dead values on the false path (Validate vetted
			// that).
			for _, in := range k.Update {
				if in.Op.IsStore() {
					b.Load(loadFor(in.Op), sel, in.Rs1, in.Imm)
					b.R(isa.CMOVNZ, sel, in.Rs2, comb)
					b.Store(in.Op, sel, in.Rs1, in.Imm)
					continue
				}
				b.Raw(in)
			}
			b.PushBQ(comb)
			if k.hasExit() {
				emitBlock(b, k.Exit)
				b.R(isa.AND, k.ExitPred, k.ExitPred, comb)
				b.Branch(isa.BNE, k.ExitPred, isa.Zero, "midbreak")
			}
		} else {
			emitBlock(b, reInner)
			emitBlock(b, k.InnerSlice)
			b.PushBQ(k.InnerPred)
		}
		b.Label("midskip")
	})
	if k.hasExit() {
		// Normal completion falls through: Forward consumes stream 1's
		// mark with nothing left; a mid-chunk exit discards the leftover
		// outer predicates. Either way stream 2 gets its own mark.
		b.Label("midbreak")
		b.ForwardBQ()
		b.MarkBQ()
	}
	s.rewind()
	// Loop 3: the control-dependent region under the combined predicate.
	s.loop("fin", func() {
		if k.OuterNote != "" {
			b.Note("combined (decoupled)", prog.SeparableTotal)
		}
		b.BranchBQ("finwork")
		b.Jump("finskip")
		b.Label("finwork")
		emitBlock(b, reCD)
		emitBlock(b, k.CD)
		if k.hasExit() {
			emitBlock(b, k.Exit)
			b.Branch(isa.BNE, k.ExitPred, isa.Zero, "finbreak")
		}
		b.Label("finskip")
	})
	if k.hasExit() {
		b.Label("finbreak")
		b.ForwardBQ()
		b.Branch(isa.BNE, k.ExitPred, isa.Zero, "done")
	}
	s.close()
	k.finish(b)
	return b.Build()
}

// DFD emits the data-flow decoupling transformation (§V): each chunk is
// preceded by a prefetch loop over both slices' loads, then the original
// nested loop runs over the warmed chunk.
func (k *NestedKernel) DFD(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(p.bqChunk())
	s.prefetch(k.flat().Slice)
	b.Mov(s.count, s.n)
	k.emitBaseLoop(b, s.count, "w", "done")
	s.close()
	k.finish(b)
	return b.Build()
}
