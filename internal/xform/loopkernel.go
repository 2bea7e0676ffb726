package xform

import (
	"fmt"

	"cfd/internal/core"
	"cfd/internal/isa"
	"cfd/internal/prog"
)

// LoopKernel is a two-level loop whose *inner loop-branch* is the hard
// branch — the trip count is data-dependent (§IV-C, the astar region #2
// shape of Fig 14) — with a second hard if inside the inner body (Fig 28):
//
//	Init
//	outer:
//	    TripSlice              // computes Trip (may load)
//	    J = 0
//	inner:
//	    if J >= Trip goto innerdone    // the separable loop-branch
//	    InnerSlice             // computes Pred from J (may load)
//	    if Pred == 0 goto noif
//	    CD
//	noif:
//	    J++; goto inner
//	innerdone:
//	    Step; Counter--; if Counter != 0 goto outer
//	Fini; halt
//
// Three decoupling transforms apply (Fig 28): cfdtq sends trip counts
// through the TQ so the loop-branch becomes TCR-driven; cfdbq pushes the
// inner if's predicates through the BQ (the loop-branch stays); cfdbqtq
// combines both, leaving no hard branch anywhere.
type LoopKernel struct {
	Name string

	Init       []isa.Inst
	TripSlice  []isa.Inst // computes Trip from outer state
	InnerSlice []isa.Inst // computes Pred from J and outer state
	CD         []isa.Inst
	Step       []isa.Inst // outer induction updates
	Fini       []isa.Inst

	Trip    isa.Reg // trip count after TripSlice
	Pred    isa.Reg // inner-if predicate after InnerSlice
	J       isa.Reg // inner induction, owned by the pass
	Counter isa.Reg // outer trip count after Init
	// MaxTrip is the caller-asserted static bound on Trip; the BQ
	// variants size their chunks so MaxTrip inner predicates per outer
	// iteration still fit (Fig 28's 120 < 128).
	MaxTrip int64
	Scratch []isa.Reg
	NoAlias bool

	// Note annotates the inner if; LoopNote the loop-branch.
	Note     string
	LoopNote string
}

// KernelName implements Form.
func (k *LoopKernel) KernelName() string { return k.Name }

// Transforms implements Form.
func (k *LoopKernel) Transforms() []Transform {
	return []Transform{TBase, TCFDTQ, TCFDBQ, TCFDBQTQ}
}

// Apply implements Form.
func (k *LoopKernel) Apply(t Transform, p Params) (*prog.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch t {
	case TBase:
		return k.Base()
	case TCFDTQ:
		return k.CFDTQ(p)
	case TCFDBQ:
		return k.CFDBQ(p)
	case TCFDBQTQ:
		return k.CFDBQTQ(p)
	case TCFD, TCFDPlus, TDFD, TCFDDFD, THoist, TIfConvert:
		return nil, fmt.Errorf("xform %s: %s applies to single-level branches; this kernel's hard branch is a data-dependent loop-branch — use cfdtq, cfdbq or cfdbqtq (§IV-C, Fig 28)", k.Name, t)
	}
	return nil, fmt.Errorf("xform %s: unknown transform %q", k.Name, t)
}

func (k *LoopKernel) blocks() map[string][]isa.Inst {
	return map[string][]isa.Inst{
		"Init": k.Init, "TripSlice": k.TripSlice, "InnerSlice": k.InnerSlice,
		"CD": k.CD, "Step": k.Step, "Fini": k.Fini,
	}
}

// Validate checks the kernel's structural requirements.
func (k *LoopKernel) Validate() error {
	for name, block := range k.blocks() {
		if err := straightLine(block); err != nil {
			return fmt.Errorf("xform %s: %s: %w", k.Name, name, err)
		}
	}
	if !blockWrites(k.TripSlice).has(k.Trip) {
		return fmt.Errorf("xform %s: TripSlice does not write the trip register %s", k.Name, k.Trip)
	}
	if !blockWrites(k.InnerSlice).has(k.Pred) {
		return fmt.Errorf("xform %s: InnerSlice does not write the predicate register %s", k.Name, k.Pred)
	}
	if k.MaxTrip < 1 {
		return fmt.Errorf("xform %s: MaxTrip %d must be >= 1", k.Name, k.MaxTrip)
	}
	userWrites := blockWrites(k.TripSlice) | blockWrites(k.InnerSlice) |
		blockWrites(k.CD) | blockWrites(k.Step)
	if userWrites.has(k.J) {
		return fmt.Errorf("xform %s: inner induction %s is owned by the pass and must not be written by kernel blocks", k.Name, k.J)
	}
	if (blockWrites(k.InnerSlice) | blockWrites(k.CD) | blockWrites(k.Step)).has(k.Trip) {
		return fmt.Errorf("xform %s: trip register %s must survive the inner loop (only TripSlice may write it)", k.Name, k.Trip)
	}
	if len(k.Scratch) < 2+len(inductionRegs(k.Step)) {
		return fmt.Errorf("xform %s: need %d scratch registers, have %d",
			k.Name, 2+len(inductionRegs(k.Step)), len(k.Scratch))
	}
	var used regSet
	for _, block := range k.blocks() {
		used |= blockReads(block) | blockWrites(block)
	}
	used.add(k.Counter)
	used.add(k.J)
	used.add(k.Trip)
	for _, r := range k.Scratch {
		if used.has(r) {
			return fmt.Errorf("xform %s: scratch register %s is used by the kernel", k.Name, r)
		}
	}
	// Both consume loops re-execute TripSlice (cfdbq) or drop it
	// entirely (TQ variants); it must be a pure function of the outer
	// inductions, and the inner slice must not lean on its temporaries.
	if upwardExposed(k.TripSlice).intersects(blockWrites(k.TripSlice) | blockWrites(k.InnerSlice)) {
		return fmt.Errorf("xform %s: TripSlice reads loop-internal state and cannot be re-executed in the consume loop", k.Name)
	}
	if upwardExposed(k.InnerSlice).intersects(blockWrites(k.TripSlice)) {
		return fmt.Errorf("xform %s: InnerSlice consumes TripSlice values; the TQ variants have no trip state in the consume loop", k.Name)
	}
	if upwardExposed(k.CD).intersects(blockWrites(k.TripSlice)) {
		return fmt.Errorf("xform %s: CD consumes TripSlice values; the TQ variants have no trip state in the consume loop", k.Name)
	}
	if (blockWrites(k.TripSlice) | blockWrites(k.InnerSlice)).intersects(upwardExposed(k.Step)) {
		return fmt.Errorf("xform %s: Step reads values computed by the slices", k.Name)
	}
	return nil
}

// Classify performs the §II-B analysis for the loop-branch form.
func (k *LoopKernel) Classify() (prog.BranchClass, error) {
	cdWrites := blockWrites(k.CD)
	// Only the slices' live-ins matter: registers they write before reading
	// are iteration-private (see Kernel.Classify).
	sliceReads := upwardExposed(k.TripSlice) | upwardExposed(k.InnerSlice)
	stepReads := blockReads(k.Step)
	switch {
	case cdWrites.intersects(sliceReads):
		return prog.Inseparable, fmt.Errorf("xform %s: CD writes registers the branch slices read (loop-carried dependence)", k.Name)
	case cdWrites.intersects(stepReads) || cdWrites.has(k.Counter) || cdWrites.has(k.J) || cdWrites.has(k.Trip):
		return prog.Inseparable, fmt.Errorf("xform %s: CD writes the loop's induction state", k.Name)
	case !k.NoAlias && (hasLoads(k.TripSlice) || hasLoads(k.InnerSlice)) && hasStores(k.CD):
		return prog.Inseparable, fmt.Errorf("xform %s: possible memory aliasing between slice loads and CD stores (set NoAlias after checking)", k.Name)
	}
	return prog.SeparableLoop, nil
}

func (k *LoopKernel) requireSeparable() error {
	cls, err := k.Classify()
	if cls == prog.SeparableLoop {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("xform %s: branch classified %v, need %v for loop-branch decoupling", k.Name, cls, prog.SeparableLoop)
	}
	return err
}

// recompute returns the backward slice of InnerSlice re-executed on the
// consume side for the values CD needs.
func (k *LoopKernel) recompute() ([]isa.Inst, error) {
	need := upwardExposed(k.CD) & blockWrites(k.InnerSlice)
	re := backwardSlice(k.InnerSlice, need)
	if upwardExposed(re).intersects(blockWrites(k.InnerSlice)) {
		return nil, fmt.Errorf("xform %s: CD consumes inner-slice-internal state that cannot be recomputed", k.Name)
	}
	return re, nil
}

func (k *LoopKernel) noteLoop(b *prog.Builder, suffix string) {
	if k.LoopNote != "" {
		b.Note(k.LoopNote+suffix, prog.SeparableLoop)
	}
}

func (k *LoopKernel) noteIf(b *prog.Builder, suffix string) {
	if k.Note != "" {
		b.Note(k.Note+suffix, prog.SeparableTotal)
	}
}

func (k *LoopKernel) finish(b *prog.Builder) {
	emitBlock(b, k.Fini)
	b.Halt()
}

// Base emits the untransformed two-level loop.
func (k *LoopKernel) Base() (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	b.Label("outer")
	emitBlock(b, k.TripSlice)
	b.Li(k.J, 0)
	b.Label("inner")
	k.noteLoop(b, " (loop-branch)")
	b.Branch(isa.BGE, k.J, k.Trip, "innerdone")
	emitBlock(b, k.InnerSlice)
	k.noteIf(b, "")
	b.Branch(isa.BEQ, k.Pred, isa.Zero, "noif")
	emitBlock(b, k.CD)
	b.Label("noif")
	b.I(isa.ADDI, k.J, k.J, 1)
	b.Jump("inner")
	b.Label("innerdone")
	emitBlock(b, k.Step)
	b.I(isa.ADDI, k.Counter, k.Counter, -1)
	b.Branch(isa.BNE, k.Counter, isa.Zero, "outer")
	k.finish(b)
	return b.Build()
}

// CFDTQ emits trip-count-queue decoupling (§IV-C): loop 1 pushes each
// outer iteration's trip count; loop 2 runs the inner loop TCR-driven, so
// the data-dependent loop-branch never mispredicts. Trip counts wider than
// the TQ entry (overflow bit set) fall back to a software inner loop that
// recomputes the count (§IV-C4).
func (k *LoopKernel) CFDTQ(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	overflowPossible := k.MaxTrip > core.MaxTripCount

	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(min(p.tqChunk(), int64(p.TQSize)))
	s.loop("gen", func() {
		emitBlock(b, k.TripSlice)
		b.PushTQ(k.Trip)
	})
	s.rewind()
	// Loop 2: TCR-driven inner looping.
	s.loop("outer2", func() {
		if overflowPossible {
			b.PopTQOV("ovf")
		} else {
			b.PopTQ()
		}
		b.Li(k.J, 0)
		b.Jump("test")
		b.Label("body")
		emitBlock(b, k.InnerSlice)
		k.noteIf(b, "")
		b.Branch(isa.BEQ, k.Pred, isa.Zero, "noif")
		emitBlock(b, k.CD)
		b.Label("noif")
		b.I(isa.ADDI, k.J, k.J, 1)
		b.Label("test")
		k.noteLoop(b, " (TCR)")
		b.BranchTCR("body")
		if overflowPossible {
			b.Jump("join")
			// Overflow path: the TQ entry carries no count; recompute
			// it in software and run the branch-driven inner loop.
			b.Label("ovf")
			emitBlock(b, k.TripSlice)
			b.Li(k.J, 0)
			b.Label("otest")
			k.noteLoop(b, " (overflow)")
			b.Branch(isa.BGE, k.J, k.Trip, "join")
			emitBlock(b, k.InnerSlice)
			b.Branch(isa.BEQ, k.Pred, isa.Zero, "onoif")
			emitBlock(b, k.CD)
			b.Label("onoif")
			b.I(isa.ADDI, k.J, k.J, 1)
			b.Jump("otest")
			b.Label("join")
		}
	})
	s.close()
	k.finish(b)
	return b.Build()
}

// CFDBQ emits BQ-only decoupling of the inner if (Fig 28): loop 1 walks
// the chunk's inner iterations pushing the if's predicates; loop 2
// consumes them. The hard loop-branch remains in both loops — CFD(BQ)
// alone removes only the if's mispredictions.
func (k *LoopKernel) CFDBQ(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	chunkSize, err := p.bqLoopChunk(k.MaxTrip)
	if err != nil {
		return nil, fmt.Errorf("xform %s: %w", k.Name, err)
	}
	re, err := k.recompute()
	if err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(chunkSize)
	// Loop 1: predicate generation across the inner iterations.
	s.loop("gen", func() {
		emitBlock(b, k.TripSlice)
		b.Li(k.J, 0)
		b.Label("gentest")
		k.noteLoop(b, " (loop-branch)")
		b.Branch(isa.BGE, k.J, k.Trip, "gendone")
		emitBlock(b, k.InnerSlice)
		b.PushBQ(k.Pred)
		b.I(isa.ADDI, k.J, k.J, 1)
		b.Jump("gentest")
		b.Label("gendone")
	})
	s.rewind()
	// Loop 2: consume; the trip count is re-derived by TripSlice.
	s.loop("outer2", func() {
		emitBlock(b, k.TripSlice)
		b.Li(k.J, 0)
		b.Jump("test")
		b.Label("body")
		k.noteIf(b, " (decoupled)")
		b.BranchBQ("doif")
		b.Jump("noif")
		b.Label("doif")
		emitBlock(b, re)
		emitBlock(b, k.CD)
		b.Label("noif")
		b.I(isa.ADDI, k.J, k.J, 1)
		b.Label("test")
		k.noteLoop(b, " (loop-branch 2)")
		b.Branch(isa.BLT, k.J, k.Trip, "body")
	})
	s.close()
	k.finish(b)
	return b.Build()
}

// CFDBQTQ emits the combined transformation (Fig 28): trip counts are
// pushed twice, so both the predicate-generation loop and the consume
// loop run TCR-driven — no hard branch survives anywhere, which is why
// BQ+TQ gains exceed the sum of the individual gains.
func (k *LoopKernel) CFDBQTQ(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	bqChunk, err := p.bqLoopChunk(k.MaxTrip)
	if err != nil {
		return nil, fmt.Errorf("xform %s: %w", k.Name, err)
	}
	chunkSize := min(bqChunk, p.tqChunk())
	if k.MaxTrip > core.MaxTripCount {
		// bqLoopChunk already bounds MaxTrip <= BQSize, far below the
		// TQ entry width; this is unreachable unless the ISA shrinks.
		return nil, fmt.Errorf("xform %s: MaxTrip %d exceeds the TQ entry range", k.Name, k.MaxTrip)
	}
	re, err := k.recompute()
	if err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(chunkSize)
	pushTrips := func() {
		emitBlock(b, k.TripSlice)
		b.PushTQ(k.Trip)
	}
	// Loop 1: trip counts for the predicate-generation loop.
	s.loop("gen", pushTrips)
	s.rewind()
	// Loop 2: TCR-driven predicate generation.
	s.loop("mid", func() {
		b.PopTQ()
		b.Li(k.J, 0)
		b.Jump("midtest")
		b.Label("midbody")
		emitBlock(b, k.InnerSlice)
		b.PushBQ(k.Pred)
		b.I(isa.ADDI, k.J, k.J, 1)
		b.Label("midtest")
		k.noteLoop(b, " (TCR gen)")
		b.BranchTCR("midbody")
	})
	s.rewind()
	// Re-push the trip counts for the consume loop (the reloads hit L1:
	// the chunk's lines are resident).
	s.loop("regen", pushTrips)
	s.rewind()
	// Loop 3: TCR-driven consumption.
	s.loop("fin", func() {
		b.PopTQ()
		b.Li(k.J, 0)
		b.Jump("fintest")
		b.Label("finbody")
		k.noteIf(b, " (decoupled)")
		b.BranchBQ("findo")
		b.Jump("finno")
		b.Label("findo")
		emitBlock(b, re)
		emitBlock(b, k.CD)
		b.Label("finno")
		b.I(isa.ADDI, k.J, k.J, 1)
		b.Label("fintest")
		k.noteLoop(b, " (TCR)")
		b.BranchTCR("finbody")
	})
	s.close()
	k.finish(b)
	return b.Build()
}
