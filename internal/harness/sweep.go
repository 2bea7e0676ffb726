package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Sweep fans specs across a pool of r.jobs() workers and returns the
// results in specs order. Duplicate specs (within the sweep or against
// earlier runs) simulate exactly once thanks to the Runner's singleflight
// cache. Within the sweep, specs that run the same program (same workload,
// variant, input size and queue capacities) share one build and, under
// Verify, its one golden replay; and specs the program cannot tell apart
// (their configs differ only in Name, or in BQMissPolicy on a program
// without a BranchBQ; see pipeline.Reduce) share one pipeline run, each
// taking a copy of its Result with its own Spec (see buildCache). The
// first failing spec cancels the rest of the sweep; the error reported is
// the failure at the lowest index, so error reporting is deterministic
// whatever the worker count. With one worker (Jobs == 1) the specs run
// strictly serially in submission order.
//
// With KeepGoing set, a failing spec does not cancel the sweep: every spec
// still runs (crash containment turns panics into memoized faults), failed
// specs leave nil slots in the returned slice, and Sweep reports no error
// unless the caller's own ctx was cancelled. The failures are collected by
// Failures in deterministic order for the export document.
func (r *Runner) Sweep(ctx context.Context, specs []RunSpec) ([]*Result, error) {
	if h := testOnSweepSpecs; h != nil {
		h(specs)
	}
	out := make([]*Result, len(specs))
	jobs := r.jobs()
	if jobs > len(specs) {
		jobs = len(specs)
	}
	sw := r.beginSweep(len(specs), jobs)
	defer sw.finish()
	// With a store, fresh completions go to the sweep's committer, so a
	// worker waits on the disk only when the committer's queue is full. It
	// drains before sweep_finish (the deferred calls run last-in
	// first-out) and before Sweep returns, on cancellation too.
	var cm *committer
	if r.Store != nil {
		cm = r.startCommitter(sw)
		defer cm.stop()
	}
	builds := newBuildCache()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				sw.submit(specs[i])
				res, err, info := r.runCtx(ctx, specs[i], sw.id(), builds)
				if cm != nil && info.fresh() {
					cm.queue <- finished{specs[i], res, err}
				} else {
					sw.done(specs[i], res, err, info)
				}
				if err != nil {
					errs[i] = err
					if !r.KeepGoing {
						cancel()
						if h := testOnSweepCancel; h != nil {
							h()
						}
					}
					continue
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	if r.KeepGoing {
		// Only the caller's own cancellation is an error; run failures
		// are memoized and reported through Failures.
		for _, err := range errs {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
		}
		return out, nil
	}

	// Report the lowest-index real failure; cancellation errors only
	// matter when they came from the caller's context.
	var firstCancel error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if firstCancel == nil {
				firstCancel = err
			}
		default:
			return nil, err
		}
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	return out, nil
}

// Prefetch simulates every spec across the worker pool so subsequent Run
// calls are cache hits. Experiments call it with their full spec list up
// front and then assemble rows serially in deterministic order. It sweeps
// under r.BaseCtx when set, so a CLI-level signal context cancels the
// experiment sweeps it drives.
func (r *Runner) Prefetch(specs ...RunSpec) error {
	ctx := r.BaseCtx
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := r.Sweep(ctx, specs)
	return err
}
