package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep fans specs across a pool of r.jobs() workers and returns the
// results in specs order. Duplicate specs (within the sweep or against
// earlier runs) simulate exactly once thanks to the Runner's singleflight
// cache. The first failing spec cancels the rest of the sweep; the error
// reported is the failure at the lowest index, so error reporting is as
// deterministic as the serial path. With one worker (Jobs == 1) the specs
// run strictly serially in submission order.
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
	// runOne is the shared per-spec step: journal the submission, run,
	// journal the terminal outcome.
	runOne := func(ctx context.Context, rs RunSpec) (*Result, error) {
		sw.submit(rs)
		res, err, info := r.runCtx(ctx, rs, sw.id())
		sw.done(rs, res, err, info)
		return res, err
	}
	if jobs <= 1 {
		for i, rs := range specs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := runOne(ctx, rs)
			if err != nil {
				if r.KeepGoing && ctx.Err() == nil {
					continue
				}
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}

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
				res, err := runOne(ctx, specs[i])
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

// mapConcurrently applies f to every item across a pool of jobs workers
// (0 = GOMAXPROCS) and returns the outputs in items order; the first error
// cancels the remaining work. It is the Sweep analog for experiment stages
// that run custom programs instead of registered workloads.
func mapConcurrently[T, U any](jobs int, items []T, f func(T) (U, error)) ([]U, error) {
	out := make([]U, len(items))
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(items) {
		jobs = len(items)
	}
	if jobs <= 1 {
		for i, it := range items {
			u, err := f(it)
			if err != nil {
				return nil, err
			}
			out[i] = u
		}
		return out, nil
	}
	errs := make([]error, len(items))
	var stop atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if stop.Load() {
					continue
				}
				u, err := f(items[i])
				if err != nil {
					errs[i] = err
					stop.Store(true)
					continue
				}
				out[i] = u
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
