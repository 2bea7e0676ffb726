package fault

import (
	"context"
	"time"
)

// DefaultPollEvery is how many cycles (or retired instructions, for the
// emulator) pass between wall-clock and context polls. Cycle-budget checks
// are exact; time checks are amortized so the hot loop stays free of
// syscalls.
const DefaultPollEvery = 4096

// Watchdog bounds an engine's Run loop. The zero value never fires. A
// Watchdog is not safe for concurrent use; give each engine its own.
type Watchdog struct {
	// MaxCycles stops the run once the engine has executed this many
	// cycles (pipeline) or instructions (emulator). 0 = unbounded.
	MaxCycles uint64
	// Deadline stops the run once the wall clock passes it. Zero = none.
	Deadline time.Time
	// Ctx, when non-nil, stops the run when the context is done
	// (cancellation or its own deadline).
	Ctx context.Context
	// PollEvery overrides DefaultPollEvery (useful in tests).
	PollEvery uint64

	// now stubs time.Now in tests.
	now func() time.Time
}

// WithTimeout returns a watchdog with a wall-clock deadline d from now and
// a cycle budget (either may be zero to disable that bound).
func WithTimeout(maxCycles uint64, d time.Duration) *Watchdog {
	w := &Watchdog{MaxCycles: maxCycles}
	if d > 0 {
		w.Deadline = time.Now().Add(d)
	}
	return w
}

// WithContext returns the watchdog a run under ctx checks: w itself when
// ctx can never be done, else a run-local copy of w (of the zero watchdog
// for a nil w) that also stops when ctx is done.
func (w *Watchdog) WithContext(ctx context.Context) *Watchdog {
	if ctx == nil || ctx.Done() == nil {
		return w
	}
	var c Watchdog
	if w != nil {
		c = *w
	}
	c.Ctx = ctx
	return &c
}

// Enabled reports whether any bound is set.
func (w *Watchdog) Enabled() bool {
	return w != nil && (w.MaxCycles != 0 || !w.Deadline.IsZero() || w.Ctx != nil)
}

// Check reports whether the watchdog has expired at cycle n. The returned
// string names the bound that fired. Wall-clock and context checks run only
// every PollEvery cycles. A nil watchdog returns before any call, since
// engines check once per cycle.
func (w *Watchdog) Check(n uint64) (string, bool) {
	if w == nil {
		return "", false
	}
	return w.check(n, "cycle budget exhausted")
}

// CheckRetired is Check for an engine whose clock is its retired
// instruction count (the emulator), so an exhausted budget is named an
// instruction budget.
func (w *Watchdog) CheckRetired(n uint64) (string, bool) {
	if w == nil {
		return "", false
	}
	return w.check(n, "instruction budget exhausted")
}

// check is Check on a non-nil watchdog, with the reason its budget gives.
func (w *Watchdog) check(n uint64, budget string) (string, bool) {
	if w.MaxCycles != 0 && n >= w.MaxCycles {
		return budget, true
	}
	poll := w.PollEvery
	if poll == 0 {
		poll = DefaultPollEvery
	}
	if n%poll != 0 {
		return "", false
	}
	if w.Ctx != nil {
		if err := w.Ctx.Err(); err != nil {
			return "canceled: " + err.Error(), true
		}
	}
	if !w.Deadline.IsZero() {
		now := time.Now
		if w.now != nil {
			now = w.now
		}
		if now().After(w.Deadline) {
			return "wall-clock deadline passed", true
		}
	}
	return "", false
}
