package emu

import (
	"cfd/internal/fault"
	"cfd/internal/isa"
)

// retRing keeps the last few retired instructions for fault snapshots,
// storing raw (pc, inst) pairs so Step never allocates for diagnostics.
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

// snapshot captures the machine's architectural state for fault
// diagnostics. The emulator has no cycles; Retired is its clock.
func (m *Machine) snapshot(pc uint64) fault.Snapshot {
	return fault.Snapshot{
		Engine:      "emu",
		PC:          pc,
		Retired:     m.Retired,
		BQLen:       m.BQ.Len(),
		VQLen:       m.VQ.Len(),
		TQLen:       m.TQ.Len(),
		TCR:         m.TCR,
		LastRetired: m.diag.snapshot(),
	}
}
