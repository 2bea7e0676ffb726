package emu

import "cfd/internal/fault"

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
		LastRetired: m.diag.Last(),
	}
}
