// Package emu implements the architectural (functional) emulator for
// CFD-RISC. It is the golden model: the cycle-level pipeline must produce
// exactly the same architectural side effects for the same program and
// initial memory. It is also the engine behind the branch-profiling and
// classification study (paper §II), which needs architecturally correct
// branch outcomes to feed a branch predictor model.
package emu

import (
	"context"
	"errors"
	"fmt"

	"cfd/internal/core"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = errors.New("emu: instruction limit reached")

// Event describes one retired instruction, for tracers.
type Event struct {
	PC     uint64
	Inst   isa.Inst
	Taken  bool   // control transfers: whether it redirected the PC
	Target uint64 // control transfers: taken-target
	Addr   uint64 // loads/stores/prefetch: effective address
	NextPC uint64
}

// Tracer observes retired instructions.
type Tracer interface {
	Retire(ev Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(ev Event)

// Retire implements Tracer.
func (f TracerFunc) Retire(ev Event) { f(ev) }

// Machine is the architectural state of one CFD-RISC hart.
type Machine struct {
	Prog *prog.Program
	Mem  *mem.Memory
	Regs [isa.NumRegs]uint64
	PC   uint64

	// CFD co-processor state.
	BQ  *core.BQ
	VQ  *core.VQ
	TQ  *core.TQ
	TCR uint64

	Halted  bool
	Retired uint64

	tracer Tracer
	wd     *fault.Watchdog
	diag   fault.Ring

	// ctxImg is the reusable queue save/restore image buffer; switches
	// happen in loops and a fresh image per switch is measurable churn.
	ctxImg []byte
}

// ctxImage returns the reusable image buffer, grown to at least n bytes.
func (m *Machine) ctxImage(n int) []byte {
	if cap(m.ctxImg) < n {
		m.ctxImg = make([]byte, n)
	}
	return m.ctxImg[:n]
}

// Option configures a Machine.
type Option func(*Machine)

// WithQueueSizes overrides the default architectural queue sizes.
func WithQueueSizes(bq, vq, tq int) Option {
	return func(m *Machine) {
		m.BQ = core.NewBQ(bq)
		m.VQ = core.NewVQ(vq)
		m.TQ = core.NewTQ(tq)
	}
}

// WithTracer registers a retirement observer.
func WithTracer(t Tracer) Option {
	return func(m *Machine) { m.tracer = t }
}

// WithWatchdog bounds Run with an instruction budget and/or wall-clock
// deadline; expiry surfaces as a fault.WatchdogExpiry fault carrying a
// machine-state snapshot.
func WithWatchdog(w *fault.Watchdog) Option {
	return func(m *Machine) { m.wd = w }
}

// New returns a Machine ready to execute p against memory mm (which the
// caller has initialized with the workload's data). mm may be nil, in which
// case a fresh memory is used.
func New(p *prog.Program, mm *mem.Memory, opts ...Option) *Machine {
	if mm == nil {
		mm = mem.New()
	}
	m := &Machine{
		Prog: p,
		Mem:  mm,
		BQ:   core.NewBQ(core.DefaultBQSize),
		VQ:   core.NewVQ(core.DefaultVQSize),
		TQ:   core.NewTQ(core.DefaultTQSize),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

func (m *Machine) reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		m.Regs[r] = v
	}
}

// Step executes one instruction. ISA violations — queue ordering rule
// breaks, undefined opcodes, malformed save/restore images — return a typed
// *fault.Fault carrying a machine-state snapshot; the machine is left
// halted in that case.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	pc := m.PC
	in := m.Prog.At(pc)
	next := pc + 1
	ev := Event{PC: pc, Inst: in}

	failKind := func(kind fault.Kind, err error) error {
		m.Halted = true
		return fault.Wrap(kind, fmt.Errorf("%s: %w", in, err), m.snapshot(pc))
	}
	// fail classifies the common case: ordering-rule violations are queue
	// faults, anything else at an executing instruction is illegal use.
	fail := func(err error) error {
		var v *core.ViolationError
		if errors.As(err, &v) {
			return failKind(fault.QueueViolation, err)
		}
		return failKind(fault.IllegalInstruction, err)
	}

	a := m.reg(in.Rs1)
	b := m.reg(in.Rs2)

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.Halted = true

	case isa.ADD:
		m.setReg(in.Rd, a+b)
	case isa.SUB:
		m.setReg(in.Rd, a-b)
	case isa.MUL:
		m.setReg(in.Rd, a*b)
	case isa.DIV:
		m.setReg(in.Rd, divSigned(a, b))
	case isa.REM:
		m.setReg(in.Rd, remSigned(a, b))
	case isa.AND:
		m.setReg(in.Rd, a&b)
	case isa.OR:
		m.setReg(in.Rd, a|b)
	case isa.XOR:
		m.setReg(in.Rd, a^b)
	case isa.SHL:
		m.setReg(in.Rd, a<<(b&63))
	case isa.SHR:
		m.setReg(in.Rd, a>>(b&63))
	case isa.SRA:
		m.setReg(in.Rd, uint64(int64(a)>>(b&63)))
	case isa.SLT:
		m.setReg(in.Rd, boolToU64(int64(a) < int64(b)))
	case isa.SLTU:
		m.setReg(in.Rd, boolToU64(a < b))
	case isa.SEQ:
		m.setReg(in.Rd, boolToU64(a == b))

	case isa.ADDI:
		m.setReg(in.Rd, a+uint64(in.Imm))
	case isa.ANDI:
		m.setReg(in.Rd, a&uint64(in.Imm))
	case isa.ORI:
		m.setReg(in.Rd, a|uint64(in.Imm))
	case isa.XORI:
		m.setReg(in.Rd, a^uint64(in.Imm))
	case isa.SHLI:
		m.setReg(in.Rd, a<<(uint64(in.Imm)&63))
	case isa.SHRI:
		m.setReg(in.Rd, a>>(uint64(in.Imm)&63))
	case isa.SRAI:
		m.setReg(in.Rd, uint64(int64(a)>>(uint64(in.Imm)&63)))
	case isa.SLTI:
		m.setReg(in.Rd, boolToU64(int64(a) < in.Imm))
	case isa.SLTUI:
		m.setReg(in.Rd, boolToU64(a < uint64(in.Imm)))
	case isa.SEQI:
		m.setReg(in.Rd, boolToU64(a == uint64(in.Imm)))

	case isa.CMOVZ:
		if b == 0 {
			m.setReg(in.Rd, a)
		}
	case isa.CMOVNZ:
		if b != 0 {
			m.setReg(in.Rd, a)
		}

	case isa.LD, isa.LW, isa.LWU, isa.LH, isa.LHU, isa.LB, isa.LBU:
		addr := a + uint64(in.Imm)
		ev.Addr = addr
		m.setReg(in.Rd, loadValue(m.Mem, in.Op, addr))
	case isa.SD:
		addr := a + uint64(in.Imm)
		ev.Addr = addr
		m.Mem.Write(addr, 8, b)
	case isa.SW:
		addr := a + uint64(in.Imm)
		ev.Addr = addr
		m.Mem.Write(addr, 4, b)
	case isa.SH:
		addr := a + uint64(in.Imm)
		ev.Addr = addr
		m.Mem.Write(addr, 2, b)
	case isa.SB:
		addr := a + uint64(in.Imm)
		ev.Addr = addr
		m.Mem.Write(addr, 1, b)
	case isa.PREF:
		ev.Addr = a + uint64(in.Imm) // architecturally a no-op

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		taken := EvalBranch(in.Op, a, b)
		ev.Taken, ev.Target = taken, in.Target(pc)
		if taken {
			next = in.Target(pc)
		}

	case isa.J:
		ev.Taken, ev.Target = true, in.Target(pc)
		next = in.Target(pc)
	case isa.JAL:
		m.setReg(in.Rd, pc+1)
		ev.Taken, ev.Target = true, in.Target(pc)
		next = in.Target(pc)
	case isa.JR:
		ev.Taken, ev.Target = true, a
		next = a

	case isa.PushBQ:
		if err := m.BQ.Push(a != 0); err != nil {
			return fail(err)
		}
	case isa.BranchBQ:
		pred, err := m.BQ.Pop()
		if err != nil {
			return fail(err)
		}
		ev.Taken, ev.Target = pred, in.Target(pc)
		if pred {
			next = in.Target(pc)
		}
	case isa.MarkBQ:
		m.BQ.Mark()
	case isa.ForwardBQ:
		if _, err := m.BQ.Forward(); err != nil {
			return fail(err)
		}

	case isa.PushVQ:
		if err := m.VQ.Push(a); err != nil {
			return fail(err)
		}
	case isa.PopVQ:
		v, err := m.VQ.Pop()
		if err != nil {
			return fail(err)
		}
		m.setReg(in.Rd, v)

	case isa.PushTQ:
		if err := m.TQ.Push(a); err != nil {
			return fail(err)
		}
	case isa.PopTQ:
		e, err := m.TQ.Pop()
		if err != nil {
			return fail(err)
		}
		if e.Overflow {
			return fail(&core.ViolationError{
				Queue: "TQ", Op: "pop_tq",
				Why: "entry overflow bit set (program must use pop_tq_ov)",
			})
		}
		m.TCR = uint64(e.Count)
	case isa.PopTQOV:
		e, err := m.TQ.Pop()
		if err != nil {
			return fail(err)
		}
		if e.Overflow {
			m.TCR = 0
			ev.Taken, ev.Target = true, in.Target(pc)
			next = in.Target(pc)
		} else {
			m.TCR = uint64(e.Count)
			ev.Target = in.Target(pc)
		}
	case isa.BranchTCR:
		ev.Target = in.Target(pc)
		if m.TCR != 0 {
			m.TCR--
			ev.Taken = true
			next = in.Target(pc)
		}

	case isa.SaveBQ:
		img := m.ctxImage(m.BQ.ImageSize())
		if err := m.BQ.SaveTo(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}
		m.Mem.StoreBytes(a+uint64(in.Imm), img)
	case isa.RestoreBQ:
		img := m.ctxImage(m.BQ.ImageSize())
		m.Mem.LoadBytes(a+uint64(in.Imm), img)
		if err := m.BQ.Restore(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}
	case isa.SaveVQ:
		img := m.ctxImage(m.VQ.ImageSize())
		if err := m.VQ.SaveTo(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}
		m.Mem.StoreBytes(a+uint64(in.Imm), img)
	case isa.RestoreVQ:
		img := m.ctxImage(m.VQ.ImageSize())
		m.Mem.LoadBytes(a+uint64(in.Imm), img)
		if err := m.VQ.Restore(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}
	case isa.SaveTQ:
		img := m.ctxImage(m.TQ.ImageSize())
		if err := m.TQ.SaveTo(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}
		m.Mem.StoreBytes(a+uint64(in.Imm), img)
	case isa.RestoreTQ:
		img := m.ctxImage(m.TQ.ImageSize())
		m.Mem.LoadBytes(a+uint64(in.Imm), img)
		if err := m.TQ.Restore(img); err != nil {
			return failKind(fault.BadMemoryAccess, err)
		}

	default:
		return fail(fmt.Errorf("undefined opcode %d", uint8(in.Op)))
	}

	m.PC = next
	m.Retired++
	m.diag.Record(pc, in)
	if m.tracer != nil {
		ev.NextPC = next
		m.tracer.Retire(ev)
	}
	return nil
}

// Run executes until HALT, an error, or limit instructions (0 means no
// limit). It returns ErrLimit when the budget runs out first.
func (m *Machine) Run(limit uint64) error {
	return m.RunCtx(context.Background(), limit)
}

// RunCtx is Run with cancellation and watchdog supervision: the machine's
// watchdog (WithWatchdog) and the caller's context both bound the run, and
// expiry returns a fault.WatchdogExpiry fault with a state snapshot. The
// watchdog's MaxCycles counts retired instructions — the emulator's clock.
func (m *Machine) RunCtx(ctx context.Context, limit uint64) error {
	wd := m.wd.WithContext(ctx)
	for !m.Halted {
		if limit != 0 && m.Retired >= limit {
			return ErrLimit
		}
		if reason, expired := wd.CheckRetired(m.Retired); expired {
			return fault.Wrap(fault.WatchdogExpiry, fmt.Errorf("watchdog: %s", reason), m.snapshot(m.PC))
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// EvalBranch evaluates a base-ISA conditional branch condition.
func EvalBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	return false
}

// loadValue performs a load with the op's width and extension semantics.
func loadValue(m *mem.Memory, op isa.Op, addr uint64) uint64 {
	switch op {
	case isa.LD:
		return m.Read(addr, 8)
	case isa.LW:
		return uint64(int64(int32(m.Read(addr, 4))))
	case isa.LWU:
		return m.Read(addr, 4)
	case isa.LH:
		return uint64(int64(int16(m.Read(addr, 2))))
	case isa.LHU:
		return m.Read(addr, 2)
	case isa.LB:
		return uint64(int64(int8(m.Read(addr, 1))))
	case isa.LBU:
		return m.Read(addr, 1)
	}
	return 0
}

// ALUOp computes the result of a register-register or register-immediate
// ALU/MUL/DIV operation outside a Machine (the pipeline's execution lanes
// share these semantics). old is the prior value of the destination
// register, needed by conditional moves.
func ALUOp(op isa.Op, a, b, imm uint64, old uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.DIV:
		return divSigned(a, b)
	case isa.REM:
		return remSigned(a, b)
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	case isa.SRA:
		return uint64(int64(a) >> (b & 63))
	case isa.SLT:
		return boolToU64(int64(a) < int64(b))
	case isa.SLTU:
		return boolToU64(a < b)
	case isa.SEQ:
		return boolToU64(a == b)
	case isa.ADDI:
		return a + imm
	case isa.ANDI:
		return a & imm
	case isa.ORI:
		return a | imm
	case isa.XORI:
		return a ^ imm
	case isa.SHLI:
		return a << (imm & 63)
	case isa.SHRI:
		return a >> (imm & 63)
	case isa.SRAI:
		return uint64(int64(a) >> (imm & 63))
	case isa.SLTI:
		return boolToU64(int64(a) < int64(imm))
	case isa.SLTUI:
		return boolToU64(a < imm)
	case isa.SEQI:
		return boolToU64(a == imm)
	case isa.CMOVZ:
		if b == 0 {
			return a
		}
		return old
	case isa.CMOVNZ:
		if b != 0 {
			return a
		}
		return old
	}
	return 0
}

// LoadValue exposes load extension semantics for the pipeline.
func LoadValue(m *mem.Memory, op isa.Op, addr uint64) uint64 { return loadValue(m, op, addr) }

// LoadSize returns the access width in bytes of a load op.
func LoadSize(op isa.Op) int {
	switch op {
	case isa.LD:
		return 8
	case isa.LW, isa.LWU:
		return 4
	case isa.LH, isa.LHU:
		return 2
	case isa.LB, isa.LBU:
		return 1
	}
	return 8
}

// StoreSize returns the access width in bytes of a store op.
func StoreSize(op isa.Op) int {
	switch op {
	case isa.SD:
		return 8
	case isa.SW:
		return 4
	case isa.SH:
		return 2
	case isa.SB:
		return 1
	}
	return 8
}

// ExtendLoad applies a load op's sign/zero extension to a raw little-endian
// value already fetched from memory or a store-queue forward.
func ExtendLoad(op isa.Op, raw uint64) uint64 {
	switch op {
	case isa.LD, isa.LWU, isa.LHU, isa.LBU:
		return raw
	case isa.LW:
		return uint64(int64(int32(raw)))
	case isa.LH:
		return uint64(int64(int16(raw)))
	case isa.LB:
		return uint64(int64(int8(raw)))
	}
	return raw
}

func divSigned(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	sa, sb := int64(a), int64(b)
	if sa == -1<<63 && sb == -1 {
		return a // overflow case: quotient defined as the dividend
	}
	return uint64(sa / sb)
}

func remSigned(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	sa, sb := int64(a), int64(b)
	if sa == -1<<63 && sb == -1 {
		return 0
	}
	return uint64(sa % sb)
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
