// Journal glue: how a Runner narrates its sweeps into the structured
// event journal (internal/obs/journal).
//
// Every event is emitted through the journal's buffered bus, so the
// sweep workers never wait on disk I/O; with a nil Journal the whole
// layer costs one nil test per call and allocates nothing (pinned by
// TestNilJournalAllocFree). Spec-level events are sweep-scoped: bare
// Run/RunCtx calls outside a Sweep — the serial assembly phase of an
// experiment, replaying thousands of memoized lookups — are deliberately
// not journaled, so the journal records the campaign's work, not its
// bookkeeping.
package harness

import (
	"context"
	"errors"
	"sync/atomic"

	"cfd/internal/fault"
	"cfd/internal/obs/journal"
)

// runInfo says how one runCtx call materialized its result: served by
// the in-memory cache, restored from the persistent store, or simulated
// fresh (and, fresh only, whether the completion persisted to the
// store). It feeds the journal's spec_done event.
type runInfo struct {
	cacheHit bool
	storeHit bool
	stored   bool
}

// fresh reports whether the call simulated the spec itself.
func (i runInfo) fresh() bool { return !i.cacheHit && !i.storeHit }

// sweepScope journals one Sweep's lifecycle. A nil scope (journal
// disabled) is a no-op on every method.
type sweepScope struct {
	r     *Runner
	seq   uint64
	total int

	ok        atomic.Int64
	failed    atomic.Int64
	storeHits atomic.Int64
}

// beginSweep opens a journal scope for a sweep of total specs, or nil
// when no journal is attached.
func (r *Runner) beginSweep(total, jobs int) *sweepScope {
	if r.Journal == nil {
		return nil
	}
	s := &sweepScope{r: r, seq: r.sweepSeq.Add(1), total: total}
	r.Journal.Emit(journal.Event{Type: journal.SweepStart, Sweep: s.seq, Total: total, Jobs: jobs,
		Manifest: r.ManifestDigest})
	return s
}

// id returns the sweep's journal sequence number (0 when not journaled).
func (s *sweepScope) id() uint64 {
	if s == nil {
		return 0
	}
	return s.seq
}

// submit records a worker picking up one spec.
func (s *sweepScope) submit(rs RunSpec) {
	if s == nil {
		return
	}
	s.r.Journal.Emit(journal.Event{
		Type: journal.SpecSubmit, Sweep: s.seq, Key: rs.key(),
		Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
	})
}

// done records one spec's terminal outcome. Context-cancellation errors
// are not terminal — the spec never completed — so they are skipped; the
// sweep_finish counts then show the shortfall against total.
func (s *sweepScope) done(rs RunSpec, res *Result, err error, info runInfo) {
	if s == nil {
		return
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	ev := SpecDone(rs, res, err)
	ev.Sweep = s.seq
	ev.CacheHit, ev.StoreHit, ev.Stored = info.cacheHit, info.storeHit, info.stored
	if info.storeHit {
		s.storeHits.Add(1)
	}
	if s.r.Store != nil {
		if skey, ok := s.r.storeKey(rs, ev.Key); ok {
			ev.StoreKey = skey
		}
	}
	if err == nil {
		s.ok.Add(1)
	} else {
		s.failed.Add(1)
		if f, ok := fault.As(err); ok && f.Kind == fault.WatchdogExpiry {
			s.r.Journal.Emit(journal.Event{
				Type: journal.WatchdogExpiry, Sweep: s.seq, Key: ev.Key,
				Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
			})
		}
	}
	s.r.Journal.Emit(ev)
}

// SpecDone maps one run's outcome to its spec_done journal event: the
// spec's identity, then either its counters or its failure, with the fault
// kind of a typed fault. A sweep adds its scope fields; cfdsim journals the
// event as is.
func SpecDone(rs RunSpec, res *Result, err error) journal.Event {
	ev := journal.Event{
		Type: journal.SpecDone, Key: rs.key(),
		Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
	}
	if err != nil {
		ev.Status = "fault"
		ev.Error = err.Error()
		if f, ok := fault.As(err); ok {
			ev.Fault = f.Kind.String()
		}
		return ev
	}
	ev.Status = "ok"
	if res != nil {
		ev.Cycles = res.Stats.Cycles
		ev.Retired = res.Stats.Retired
		ev.IPC = res.Stats.IPC()
	}
	return ev
}

// finish closes the scope with the sweep's terminal counts, including
// how many completions were resume skips restored from the store.
func (s *sweepScope) finish() {
	if s == nil {
		return
	}
	s.r.Journal.Emit(journal.Event{
		Type: journal.SweepFinish, Sweep: s.seq, Total: s.total,
		Completed: int(s.ok.Load()), Failed: int(s.failed.Load()),
		ResumeSkips: int(s.storeHits.Load()),
	})
}
