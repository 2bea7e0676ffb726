// Package xform is the automatic CFD transformation pass — the analog of
// the gcc pass the paper describes (§III-B): "CFD can be applied either
// manually by the programmer or automatically by the compiler. We
// implemented a gcc compiler pass for CFD ... and demonstrated comparable
// performance to manual CFD for totally separable branches."
//
// The pass operates on structured loop kernels: straight-line instruction
// blocks for the branch slice (predicate computation), the
// control-dependent region, and the induction step. It
//
//   - verifies separability by register dataflow (the branch's backward
//     slice must not read anything its control-dependent region writes,
//     §II-B),
//   - computes the values the control-dependent region consumes from the
//     slice and either recomputes their backward slices in the second loop
//     (plain CFD) or routes them through the value queue (CFD+, §IV-B),
//   - strip-mines the loop into chunks sized from the architectural queue
//     capacities (§III-B, Params), snapshotting and restoring the
//     induction registers around the decoupled loop pair,
//   - supports early-exit regions through the BQ's Mark/Forward bulk-pop
//     (§IV-A), multi-pass kernels, software-pipelined predicate hoisting,
//     the DFD prefetch transformation (§V) and the combined CFD+DFD form
//     (Fig 26), and — on the LoopKernel form — the trip-count-queue
//     variants of §IV-C and Fig 28.
//
// Three kernel forms implement the Form interface: Kernel (single-level),
// NestedKernel (two guard levels, the astar region #1 shape), and
// LoopKernel (hard branch inside a data-dependent inner loop, the astar
// region #2 shape).
package xform

import (
	"fmt"

	"cfd/internal/isa"
	"cfd/internal/prog"
)

// Kernel is a structured single-level loop:
//
//	Init                     // once
//	pass:                    // only with Passes: outer pass loop
//	    PassInit             // re-arms Counter and per-pass cursors
//	loop:
//	    Slice                // computes Pred (may load; straight-line)
//	    if Pred == 0 goto skip
//	    CD                   // control-dependent region (straight-line)
//	    Exit                 // optional: computes ExitPred
//	    if ExitPred != 0 goto done
//	skip:
//	    Step                 // induction updates (straight-line)
//	    Counter--
//	    if Counter != 0 goto loop
//	    Passes--; if Passes != 0 goto pass
//	done:
//	Fini                     // once (result stores)
//	halt
type Kernel struct {
	Name string

	Init     []isa.Inst
	PassInit []isa.Inst // per-pass setup; requires Passes
	Slice    []isa.Inst
	CD       []isa.Inst
	Exit     []isa.Inst // early-exit check after CD (§IV-A); requires ExitPred
	Step     []isa.Inst
	Fini     []isa.Inst // epilogue before halt

	// Pred holds the predicate after Slice (non-zero = execute CD).
	Pred isa.Reg
	// ExitPred, when non-zero, holds the early-exit predicate after Exit
	// (non-zero = leave the region). It must be written only by Exit.
	ExitPred isa.Reg
	// Counter holds the trip count after Init (or PassInit).
	Counter isa.Reg
	// Passes, when non-zero, holds the outer pass count after Init.
	Passes isa.Reg
	// Scratch lists registers the pass may clobber: at least two for
	// strip-mining plus one per induction register (Step write).
	Scratch []isa.Reg
	// NoAlias asserts that loads in Slice never alias stores in CD —
	// memory disjointness is the caller's (programmer's/compiler's)
	// obligation, exactly as in the paper's manual transformations.
	NoAlias bool
	// Lookahead is the push-ahead distance for the Hoist transform
	// (default 4 when zero).
	Lookahead int

	// Note annotates the hard branch for the classification study;
	// LoopNote optionally annotates the loop back-edge in the base
	// program, and ExitNote the early-exit branch.
	Note     string
	LoopNote string
	ExitNote string
}

// KernelName implements Form.
func (k *Kernel) KernelName() string { return k.Name }

// Transforms implements Form: the transforms that can apply to a
// single-level kernel.
func (k *Kernel) Transforms() []Transform {
	return []Transform{TBase, TCFD, TCFDPlus, TDFD, TCFDDFD, THoist, TIfConvert}
}

// Apply implements Form.
func (k *Kernel) Apply(t Transform, p Params) (*prog.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch t {
	case TBase:
		return k.Base()
	case TCFD:
		return k.CFD(p, false)
	case TCFDPlus:
		return k.CFD(p, true)
	case TDFD:
		return k.DFD(p)
	case TCFDDFD:
		return k.CFDDFD(p)
	case THoist:
		return k.Hoist(p)
	case TIfConvert:
		return k.IfConvert()
	case TCFDTQ, TCFDBQ, TCFDBQTQ:
		return nil, fmt.Errorf("xform %s: %s requires a loop-branch kernel (LoopKernel, §IV-C/Fig 28); this kernel's branch is not inside a data-dependent inner loop", k.Name, t)
	}
	return nil, fmt.Errorf("xform %s: unknown transform %q", k.Name, t)
}

// regSet is a small register set.
type regSet uint32

func (s regSet) has(r isa.Reg) bool       { return s&(1<<r) != 0 }
func (s *regSet) add(r isa.Reg)           { *s |= 1 << r }
func (s regSet) intersects(o regSet) bool { return s&o&^1 != 0 } // r0 never counts

// reads returns the registers an instruction reads (conditional moves read
// their destination).
func reads(in isa.Inst) regSet {
	var s regSet
	if in.Op.ReadsRs1() {
		s.add(in.Rs1)
	}
	if in.Op.ReadsRs2() {
		s.add(in.Rs2)
	}
	if in.Op == isa.CMOVZ || in.Op == isa.CMOVNZ {
		s.add(in.Rd)
	}
	return s
}

// writes returns the register an instruction writes, as a set.
func writes(in isa.Inst) regSet {
	var s regSet
	if in.Op.WritesRd() && in.Rd != isa.Zero {
		s.add(in.Rd)
	}
	return s
}

func blockReads(block []isa.Inst) regSet {
	var s regSet
	for _, in := range block {
		s |= reads(in)
	}
	return s
}

func blockWrites(block []isa.Inst) regSet {
	var s regSet
	for _, in := range block {
		s |= writes(in)
	}
	return s
}

// upwardExposed returns the registers read by a block before any write in
// the block itself — its live-in set.
func upwardExposed(block []isa.Inst) regSet {
	var exposed, written regSet
	for _, in := range block {
		exposed |= reads(in) &^ written
		written |= writes(in)
	}
	return exposed
}

func straightLine(block []isa.Inst) error {
	for _, in := range block {
		if in.Op.IsControl() || in.Op == isa.HALT {
			return fmt.Errorf("control transfer %s inside a straight-line block", in)
		}
		if in.Op.IsCFD() {
			return fmt.Errorf("CFD instruction %s inside a kernel block", in)
		}
	}
	return nil
}

func hasLoads(block []isa.Inst) bool {
	for _, in := range block {
		if in.Op.IsLoad() && in.Op != isa.PREF {
			return true
		}
	}
	return false
}

func hasStores(block []isa.Inst) bool {
	for _, in := range block {
		if in.Op.IsStore() {
			return true
		}
	}
	return false
}

func (k *Kernel) hasExit() bool { return len(k.Exit) > 0 || k.ExitPred != 0 }

// blocks returns every instruction block with its name, for uniform
// structural checks.
func (k *Kernel) blocks() map[string][]isa.Inst {
	return map[string][]isa.Inst{
		"Init": k.Init, "PassInit": k.PassInit, "Slice": k.Slice,
		"CD": k.CD, "Exit": k.Exit, "Step": k.Step, "Fini": k.Fini,
	}
}

// Validate checks the kernel's structural requirements.
func (k *Kernel) Validate() error {
	for name, block := range k.blocks() {
		if err := straightLine(block); err != nil {
			return fmt.Errorf("xform %s: %s: %w", k.Name, name, err)
		}
	}
	if !blockWrites(k.Slice).has(k.Pred) {
		return fmt.Errorf("xform %s: Slice does not write the predicate register %s", k.Name, k.Pred)
	}
	if (k.Passes != 0) != (len(k.PassInit) > 0) {
		return fmt.Errorf("xform %s: Passes and PassInit must be set together (multi-pass kernels re-arm Counter in PassInit)", k.Name)
	}
	if k.Passes != 0 {
		if !blockWrites(k.PassInit).has(k.Counter) {
			return fmt.Errorf("xform %s: PassInit does not re-arm the counter register %s", k.Name, k.Counter)
		}
		if (blockWrites(k.Slice) | blockWrites(k.CD) | blockWrites(k.Step) | blockWrites(k.Exit) | blockWrites(k.PassInit)).has(k.Passes) {
			return fmt.Errorf("xform %s: pass counter %s is written inside the pass body", k.Name, k.Passes)
		}
	}
	if (len(k.Exit) > 0) != (k.ExitPred != 0) {
		return fmt.Errorf("xform %s: Exit and ExitPred must be set together", k.Name)
	}
	if k.hasExit() {
		if !blockWrites(k.Exit).has(k.ExitPred) {
			return fmt.Errorf("xform %s: early-exit block does not write the exit predicate %s — a non-exiting exit check cannot terminate the region", k.Name, k.ExitPred)
		}
		if (blockWrites(k.Init) | blockWrites(k.PassInit) | blockWrites(k.Slice) | blockWrites(k.CD) | blockWrites(k.Step) | blockWrites(k.Fini)).has(k.ExitPred) {
			return fmt.Errorf("xform %s: exit predicate %s must be written only by the Exit block", k.Name, k.ExitPred)
		}
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
	if k.Passes != 0 {
		used.add(k.Passes)
	}
	for _, r := range k.Scratch {
		if used.has(r) {
			return fmt.Errorf("xform %s: scratch register %s is used by the kernel", k.Name, r)
		}
	}
	// The induction step must not consume values the slice computes:
	// both decoupled loops re-execute it independently.
	if blockWrites(k.Slice).intersects(upwardExposed(k.Step)) {
		return fmt.Errorf("xform %s: Step reads values computed by Slice", k.Name)
	}
	return nil
}

// inductionRegs returns the registers a Step block writes, in first-write
// order.
func inductionRegs(step []isa.Inst) []isa.Reg {
	var seen regSet
	var out []isa.Reg
	for _, in := range step {
		if writes(in) != 0 && !seen.has(in.Rd) {
			seen.add(in.Rd)
			out = append(out, in.Rd)
		}
	}
	return out
}

// Classify performs the separability analysis of §II-B: the branch's
// backward slice (Slice, plus the inductions feeding it) must not depend
// on the control-dependent region. The Exit block executes on the taken
// path, so it counts as control-dependent too.
func (k *Kernel) Classify() (prog.BranchClass, error) {
	cdWrites := blockWrites(k.CD) | blockWrites(k.Exit)
	// Only the slice's live-ins matter: a register the slice writes before
	// reading is iteration-private, so a CD write to it carries nothing.
	sliceReads := upwardExposed(k.Slice)
	stepReads := blockReads(k.Step)
	switch {
	case cdWrites.intersects(sliceReads):
		return prog.Inseparable, fmt.Errorf("xform %s: CD writes registers the branch slice reads (loop-carried dependence)", k.Name)
	case cdWrites.intersects(stepReads) || cdWrites.has(k.Counter) || (k.Passes != 0 && cdWrites.has(k.Passes)):
		return prog.Inseparable, fmt.Errorf("xform %s: CD writes the loop's induction state", k.Name)
	case !k.NoAlias && hasLoads(k.Slice) && (hasStores(k.CD) || hasStores(k.Exit)):
		return prog.Inseparable, fmt.Errorf("xform %s: possible memory aliasing between slice loads and CD stores (set NoAlias after checking)", k.Name)
	}
	return prog.SeparableTotal, nil
}

// requireSeparable is the transform-entry guard: a decoupling transform
// must reject every kernel that is not totally separable, with an
// explicit error even if the classifier produced a class without one.
func (k *Kernel) requireSeparable() error {
	cls, err := k.Classify()
	if cls == prog.SeparableTotal {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("xform %s: branch classified %v, need %v for decoupling", k.Name, cls, prog.SeparableTotal)
	}
	return err
}

// communicated returns the registers CD consumes that Slice produces — the
// values that must flow from the first loop to the second (§IV-B).
func (k *Kernel) communicated() []isa.Reg {
	need := (upwardExposed(k.CD) | upwardExposed(k.Exit)) & blockWrites(k.Slice)
	var out []isa.Reg
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if need.has(r) {
			out = append(out, r)
		}
	}
	return out
}

// recomputeSlice returns the backward slice of Slice that recomputes the
// communicated values in the consuming loop, or an error when
// recomputation is unsound (slice-internal carried state must travel
// through the VQ instead).
func (k *Kernel) recomputeSlice() ([]isa.Inst, error) {
	var want regSet
	for _, r := range k.communicated() {
		want.add(r)
	}
	re := backwardSlice(k.Slice, want)
	if upwardExposed(re).intersects(blockWrites(k.Slice)) {
		return nil, fmt.Errorf("xform %s: communicated values depend on slice-internal state and cannot be recomputed; use CFD(useVQ=true)", k.Name)
	}
	return re, nil
}

// backwardSlice returns the sub-sequence of block needed to compute the
// given registers, by backward dataflow closure.
func backwardSlice(block []isa.Inst, want regSet) []isa.Inst {
	needed := want
	keep := make([]bool, len(block))
	for i := len(block) - 1; i >= 0; i-- {
		if writes(block[i]).intersects(needed) {
			keep[i] = true
			needed &^= writes(block[i])
			needed |= reads(block[i])
		}
	}
	var out []isa.Inst
	for i, k := range keep {
		if k {
			out = append(out, block[i])
		}
	}
	return out
}

// prefetchBody builds the DFD loop body for a slice (§V): each load's
// address slice, with a PREF placed at the load's own program point — so
// an address register reused for several loads prefetches each one at the
// moment its address is live, not whatever the register holds at the end
// of the slice. Loads feeding later addresses (pointer chasing) stay real
// loads via the backward closure.
func prefetchBody(slice []isa.Inst) []isa.Inst {
	keep := make([]bool, len(slice))
	pref := make([]bool, len(slice))
	for i, in := range slice {
		if !in.Op.IsLoad() || in.Op == isa.PREF {
			continue
		}
		pref[i] = true
		// Close over the address register's producers before this point.
		var need regSet
		need.add(in.Rs1)
		for j := i - 1; j >= 0; j-- {
			if writes(slice[j]).intersects(need) {
				keep[j] = true
				need &^= writes(slice[j])
				need |= reads(slice[j])
			}
		}
	}
	var body []isa.Inst
	for i, in := range slice {
		if keep[i] {
			body = append(body, in)
		}
		if pref[i] {
			body = append(body, isa.Inst{Op: isa.PREF, Rs1: in.Rs1, Imm: in.Imm})
		}
	}
	return body
}

// substituteRegs rewrites every register operand through the given map —
// used by Hoist to run the lookahead slice on shadow inductions.
func substituteRegs(block []isa.Inst, sub map[isa.Reg]isa.Reg) []isa.Inst {
	out := make([]isa.Inst, len(block))
	for i, in := range block {
		if r, ok := sub[in.Rd]; ok {
			in.Rd = r
		}
		if r, ok := sub[in.Rs1]; ok {
			in.Rs1 = r
		}
		if r, ok := sub[in.Rs2]; ok {
			in.Rs2 = r
		}
		out[i] = in
	}
	return out
}

func emitBlock(b *prog.Builder, block []isa.Inst) {
	for _, in := range block {
		b.Raw(in)
	}
}

// strip is the strip-mining frame of a decoupled loop (§III-B): the loop
// runs in chunks no larger than a queue holds, and each of the chunk's
// decoupled loops walks the same iterations, rewound to the inductions
// the chunk header snapshotted. It owns the first scratch registers: the
// chunk size n, the loop count, and one shadow per induction register.
type strip struct {
	b          *prog.Builder
	n, count   isa.Reg
	counter    isa.Reg // the kernel's trip count
	step       []isa.Inst
	inductions []isa.Reg
	shadows    []isa.Reg
}

func newStrip(b *prog.Builder, scratch []isa.Reg, counter isa.Reg, step []isa.Inst) *strip {
	inductions := inductionRegs(step)
	return &strip{b: b, n: scratch[0], count: scratch[1], counter: counter, step: step,
		inductions: inductions, shadows: scratch[2 : 2+len(inductions)]}
}

// open emits the chunk header: n = min(size, counter), then the snapshot.
func (s *strip) open(size int64) {
	s.b.Label("chunk")
	s.b.Li(s.n, size)
	s.b.R(isa.SLT, s.count, s.counter, s.n)
	s.b.R(isa.CMOVNZ, s.n, s.counter, s.count)
	s.snapshot()
}

// snapshot copies the inductions to their shadows, and rewind copies them
// back.
func (s *strip) snapshot() {
	for i, r := range s.inductions {
		s.b.Mov(s.shadows[i], r)
	}
}

func (s *strip) rewind() {
	for i, r := range s.inductions {
		s.b.Mov(r, s.shadows[i])
	}
}

// loop emits one walk over the chunk: body, then Step and the countdown.
func (s *strip) loop(label string, body func()) {
	s.b.Mov(s.count, s.n)
	s.b.Label(label)
	body()
	emitBlock(s.b, s.step)
	s.b.I(isa.ADDI, s.count, s.count, -1)
	s.b.Branch(isa.BNE, s.count, isa.Zero, label)
}

// prefetch emits the DFD prefetch walk over the chunk (§V, Fig 26), then
// rewinds.
func (s *strip) prefetch(slice []isa.Inst) {
	pf := prefetchBody(slice)
	s.loop("pf", func() { emitBlock(s.b, pf) })
	s.rewind()
}

// close emits the chunk back-edge.
func (s *strip) close() {
	s.b.R(isa.SUB, s.counter, s.counter, s.n)
	s.b.Branch(isa.BNE, s.counter, isa.Zero, "chunk")
}

// passOpen emits the pass-loop label, and passClose the pass back-edge;
// both are no-ops for single-pass kernels.
func (k *Kernel) passOpen(b *prog.Builder) {
	if k.Passes != 0 {
		b.Label("pass")
		emitBlock(b, k.PassInit)
	}
}

func (k *Kernel) passClose(b *prog.Builder) {
	if k.Passes != 0 {
		b.I(isa.ADDI, k.Passes, k.Passes, -1)
		b.Branch(isa.BNE, k.Passes, isa.Zero, "pass")
	}
}

// finish emits the optional done label, the epilogue and the halt.
func (k *Kernel) finish(b *prog.Builder) {
	if k.hasExit() {
		b.Label("done")
	}
	emitBlock(b, k.Fini)
	b.Halt()
}

func (k *Kernel) noteBranch(b *prog.Builder, suffix string) {
	if k.Note != "" {
		b.Note(k.Note+suffix, prog.SeparableTotal)
	}
}

func (k *Kernel) noteExit(b *prog.Builder) {
	if k.ExitNote != "" {
		b.Note(k.ExitNote, prog.EasyToPredict)
	}
}

// emitBaseLoop emits the untransformed loop body over the counter
// register, branching to exitLabel on early exit. Label names are prefixed
// so the loop can be instantiated more than once in a program.
func (k *Kernel) emitBaseLoop(b *prog.Builder, counter isa.Reg, prefix, exitLabel string, noteLoop bool) {
	b.Label(prefix + "loop")
	emitBlock(b, k.Slice)
	k.noteBranch(b, "")
	b.Branch(isa.BEQ, k.Pred, isa.Zero, prefix+"skip")
	emitBlock(b, k.CD)
	if k.hasExit() {
		emitBlock(b, k.Exit)
		k.noteExit(b)
		b.Branch(isa.BNE, k.ExitPred, isa.Zero, exitLabel)
	}
	b.Label(prefix + "skip")
	emitBlock(b, k.Step)
	b.I(isa.ADDI, counter, counter, -1)
	if noteLoop && k.LoopNote != "" {
		b.Note(k.LoopNote, prog.EasyToPredict)
	}
	b.Branch(isa.BNE, counter, isa.Zero, prefix+"loop")
}

// Base emits the untransformed loop.
func (k *Kernel) Base() (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	k.passOpen(b)
	k.emitBaseLoop(b, k.Counter, "", "done", true)
	k.passClose(b)
	k.finish(b)
	return b.Build()
}

// CFD emits the decoupled transformation: strip-mined chunks sized from
// the BQ capacity, a predicate-generating loop, and a consuming loop.
// With useVQ the communicated values travel through the value queue
// (CFD+); otherwise their backward slices are recomputed in the second
// loop. Early-exit kernels mark the BQ after the generating loop and
// discard the leftover predicates with a Forward bulk-pop when the region
// exits mid-chunk (§IV-A).
func (k *Kernel) CFD(p Params, useVQ bool) (*prog.Program, error) {
	return k.emitCFD(p, useVQ, false)
}

// CFDDFD emits the combined transformation of Fig 26: each chunk runs the
// DFD prefetch loop first, then the decoupled CFD loop pair over the
// warmed data.
func (k *Kernel) CFDDFD(p Params) (*prog.Program, error) {
	return k.emitCFD(p, false, true)
}

func (k *Kernel) emitCFD(p Params, useVQ, withPrefetch bool) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	if useVQ && k.hasExit() {
		return nil, fmt.Errorf("xform %s: CFD+ cannot be applied to an early-exit kernel: the VQ has no mark/forward to discard leftover values; use plain CFD", k.Name)
	}
	comm := k.communicated()
	var recompute []isa.Inst
	if !useVQ {
		var err error
		if recompute, err = k.recomputeSlice(); err != nil {
			return nil, err
		}
	}
	chunkSize := p.bqChunk()
	if useVQ {
		chunkSize = p.vqChunk()
	}

	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	k.passOpen(b)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(chunkSize)
	if withPrefetch {
		s.prefetch(k.Slice)
	}
	// Loop 1: the branch slice. Only the predicate's backward slice is
	// needed here (plus the communicated values when they travel through
	// the VQ, and anything Step reads): slice instructions that exist
	// solely for the consuming loop are recomputed there instead.
	var genWant regSet
	genWant.add(k.Pred)
	if useVQ {
		for _, r := range comm {
			genWant.add(r)
		}
	}
	genWant |= upwardExposed(k.Step) & blockWrites(k.Slice)
	gen := backwardSlice(k.Slice, genWant)
	s.loop("gen", func() {
		emitBlock(b, gen)
		b.PushBQ(k.Pred)
		if useVQ {
			for _, r := range comm {
				b.PushVQ(r)
			}
		}
	})
	if k.hasExit() {
		// Remember where this chunk's predicates end so a mid-chunk
		// exit can discard the leftovers in bulk (§IV-A).
		b.MarkBQ()
		// The exit predicate is written only by Exit; clear it so a
		// chunk with no taken iterations cannot see a stale value.
		b.Li(k.ExitPred, 0)
	}
	s.rewind()
	// Loop 2: the branch and its control-dependent region.
	s.loop("use", func() {
		if useVQ {
			for _, r := range comm {
				b.PopVQ(r)
			}
		}
		k.noteBranch(b, " (decoupled)")
		b.BranchBQ("work")
		b.Jump("skip")
		b.Label("work")
		if !useVQ {
			emitBlock(b, recompute)
		}
		emitBlock(b, k.CD)
		if k.hasExit() {
			emitBlock(b, k.Exit)
			k.noteExit(b)
			b.Branch(isa.BNE, k.ExitPred, isa.Zero, "bail")
		}
		b.Label("skip")
	})
	if k.hasExit() {
		// Normal completion falls through: Forward consumes the mark
		// with nothing left to pop. A mid-chunk exit lands here with
		// ExitPred set and unconsumed predicates to discard.
		b.Label("bail")
		b.ForwardBQ()
		b.Branch(isa.BNE, k.ExitPred, isa.Zero, "done")
	}
	s.close()
	k.passClose(b)
	k.finish(b)
	return b.Build()
}

// DFD emits the data-flow decoupling transformation (§V): each chunk is
// preceded by a loop containing only the slice's loads — as prefetches —
// and their address slices.
func (k *Kernel) DFD(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	emitBlock(b, k.Init)
	k.passOpen(b)
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	s.open(p.bqChunk())
	s.prefetch(k.Slice)
	// Original loop over the warmed chunk.
	b.Mov(s.count, s.n)
	k.emitBaseLoop(b, s.count, "", "done", false)
	s.close()
	k.passClose(b)
	k.finish(b)
	return b.Build()
}

// Hoist emits the software-pipelined push-ahead transformation: the
// predicate for iteration i+D is computed and pushed on shadow inductions
// while iteration i consumes its BQ entry — no strip-mining, a steady
// one-push-one-pop rhythm with a D-deep prologue and drain. It suits
// kernels whose trip counts are too small or whose passes are too short
// for chunked CFD to pay off. When a pass has D or fewer iterations the
// generated code falls back to the untransformed loop for that pass.
func (k *Kernel) Hoist(p Params) (*prog.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := k.requireSeparable(); err != nil {
		return nil, err
	}
	if k.hasExit() {
		return nil, fmt.Errorf("xform %s: Hoist cannot be applied to an early-exit kernel: in-flight hoisted predicates have no mark to forward past", k.Name)
	}
	d := int64(k.Lookahead)
	if d == 0 {
		d = 4
	}
	if d < 1 || d >= int64(p.BQSize) {
		return nil, fmt.Errorf("xform %s: hoist distance %d must be in [1, BQ size %d)", k.Name, d, p.BQSize)
	}
	recompute, err := k.recomputeSlice()
	if err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	s := newStrip(b, k.Scratch, k.Counter, k.Step)
	sub := map[isa.Reg]isa.Reg{}
	for i, r := range s.inductions {
		sub[r] = s.shadows[i]
	}
	lookSlice := substituteRegs(k.Slice, sub)
	lookStep := substituteRegs(k.Step, sub)

	emitBlock(b, k.Init)
	k.passOpen(b)
	// Passes with Counter <= D cannot sustain the pipeline; run them
	// untransformed.
	b.Li(s.n, d)
	b.R(isa.SLT, s.count, s.n, k.Counter)
	b.Branch(isa.BEQ, s.count, isa.Zero, "smallloop")
	s.snapshot()
	// Prologue: push the first D predicates on the shadow cursors.
	b.Mov(s.count, s.n)
	b.Label("pro")
	emitBlock(b, lookSlice)
	b.PushBQ(k.Pred)
	emitBlock(b, lookStep)
	b.I(isa.ADDI, s.count, s.count, -1)
	b.Branch(isa.BNE, s.count, isa.Zero, "pro")
	// Steady state: consume one predicate, push the one D ahead.
	b.R(isa.SUB, k.Counter, k.Counter, s.n)
	b.Label("steady")
	k.noteBranch(b, " (hoisted)")
	b.BranchBQ("work")
	b.Jump("skip")
	b.Label("work")
	emitBlock(b, recompute)
	emitBlock(b, k.CD)
	b.Label("skip")
	emitBlock(b, lookSlice)
	b.PushBQ(k.Pred)
	emitBlock(b, lookStep)
	emitBlock(b, k.Step)
	b.I(isa.ADDI, k.Counter, k.Counter, -1)
	b.Branch(isa.BNE, k.Counter, isa.Zero, "steady")
	// Drain the last D predicates.
	s.loop("drain", func() {
		k.noteBranch(b, " (drain)")
		b.BranchBQ("dwork")
		b.Jump("dskip")
		b.Label("dwork")
		emitBlock(b, recompute)
		emitBlock(b, k.CD)
		b.Label("dskip")
	})
	b.Jump("passend")
	// Fallback for short passes.
	k.emitBaseLoop(b, k.Counter, "small", "done", false)
	b.Label("passend")
	k.passClose(b)
	k.finish(b)
	return b.Build()
}
