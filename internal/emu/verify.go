package emu

import (
	"fmt"

	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// VerifyArch replays p from the initial memory init on a fresh Machine —
// the golden architectural model — and compares the outcome against the
// retired state another execution engine (in practice the cycle-level
// pipeline) produced for the same program: retired-instruction count,
// architectural register file, and final memory. It returns nil when they
// agree and a descriptive error on the first divergence. It is Replay
// followed by Compare.
//
// init must be the memory image the other engine started from (pass a
// clone taken before that run: both engines mutate their memory). opts are
// forwarded to the Machine so callers can match non-default architectural
// queue sizes.
func VerifyArch(p *prog.Program, init *mem.Memory, regs [isa.NumRegs]uint64, final *mem.Memory, retired uint64, opts ...Option) error {
	golden, err := Replay(p, init, opts...)
	if err != nil {
		return err
	}
	return golden.Compare(regs, final, retired)
}

// Replay runs p from init to completion on a fresh Machine, the golden
// architectural model, and returns it halted. The outcome depends only on
// p, init and the queue sizes among opts, so one replay can serve every
// core that ran p from init with those queues (Compare).
func Replay(p *prog.Program, init *mem.Memory, opts ...Option) (*Machine, error) {
	if init == nil {
		init = mem.New()
	}
	golden := New(p, init, opts...)
	if err := golden.Run(0); err != nil {
		return nil, fmt.Errorf("emu: golden replay failed: %w", err)
	}
	return golden, nil
}

// Compare checks another engine's retired state against m, a finished
// golden replay: the retired-instruction count, the architectural
// registers and the final memory. It returns nil when they agree and a
// descriptive error on the first divergence. Compare only reads m, so any
// number of goroutines may compare against one replay.
func (m *Machine) Compare(regs [isa.NumRegs]uint64, final *mem.Memory, retired uint64) error {
	if m.Retired != retired {
		return fmt.Errorf("emu: retired-instruction divergence: golden retired %d, core retired %d",
			m.Retired, retired)
	}
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if regs[r] != m.Regs[r] {
			return fmt.Errorf("emu: architectural register divergence: r%d = %#x, golden %#x",
				r, regs[r], m.Regs[r])
		}
	}
	if !m.Mem.Equal(final) {
		return fmt.Errorf("emu: final-memory divergence (golden checksum %#x, core checksum %#x)",
			m.Mem.Checksum(), final.Checksum())
	}
	return nil
}
