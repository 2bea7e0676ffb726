package emu

import "cfd/internal/obs"

// The emulator has no pipeline, so its observer runs on the instruction
// clock: one tick per retired instruction, architectural queue occupancy
// observed after each retirement. Cycle-flavoured sample fields (IPC, stall
// fractions) degenerate to their architectural values — IPC is identically
// one — but the occupancy series and histograms are real and directly
// comparable to the pipeline's, which is the point: they show how much of
// the BQ/VQ/TQ pressure is architectural (program shape) versus
// microarchitectural (timing).

// WithObserver attaches an interval sampler driven by the instruction
// clock. Nil disables observation with zero per-step cost beyond one nil
// check.
func WithObserver(o *obs.Observer) Option {
	return func(m *Machine) { m.obsv = o }
}

// Observer returns the attached observer (nil when observation is off).
func (m *Machine) Observer() *obs.Observer { return m.obsv }

func (m *Machine) obsTick() {
	o := m.obsv
	o.TickQueues(m.BQ.Len(), m.VQ.Len(), m.TQ.Len(), 1)
	if o.Due(m.Retired) {
		o.Record(m.intervalCounters())
	}
}

func (m *Machine) intervalCounters() obs.IntervalCounters {
	return obs.IntervalCounters{Cycle: m.Retired, Retired: m.Retired}
}

// FinishObservation flushes the partial tail interval. Call once after the
// run; safe to call with observation disabled.
func (m *Machine) FinishObservation() {
	if m.obsv != nil {
		m.obsv.Finish(m.intervalCounters())
	}
}
