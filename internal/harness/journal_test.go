package harness

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"cfd/internal/config"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

func journalSpecs() []RunSpec {
	return []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "bzip2like", Variant: workload.CFD, Config: config.SandyBridge()},
		{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "soplexlike", Variant: workload.CFD, Config: config.SandyBridge()},
	}
}

// sweepJournal runs one journaled sweep and returns the parsed events.
func sweepJournal(t *testing.T, dir string, jobs int, store bool, specs []RunSpec) []journal.Event {
	t.Helper()
	path := filepath.Join(dir, "t.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.02)
	r.Jobs = jobs
	r.Journal = j
	if store {
		st, err := OpenStore(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		r.Store = st
	}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Validate(events); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestJournalGoldenAcrossJobs is the golden pin: the canonical sorted
// replay of a fixed sweep's journal is byte-identical between -jobs 1
// and -jobs 8, with duplicate specs exercising the cache-hit replay
// ordering.
func TestJournalGoldenAcrossJobs(t *testing.T) {
	specs := append(journalSpecs(), journalSpecs()[0], journalSpecs()[2]) // dups → cache hits
	replay := func(jobs int) []byte {
		events := sweepJournal(t, t.TempDir(), jobs, false, specs)
		var buf bytes.Buffer
		if err := journal.Write(&buf, journal.SortedReplay(events)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	r1 := replay(1)
	r8 := replay(8)
	if !bytes.Equal(r1, r8) {
		t.Fatalf("sorted replay differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", r1, r8)
	}
}

// TestJournalSweepEvents pins the event stream's shape and its agreement
// with the Runner's own metrics.
func TestJournalSweepEvents(t *testing.T) {
	specs := journalSpecs()
	events := sweepJournal(t, t.TempDir(), 4, false, specs)

	sum, err := journal.Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sweeps != 1 || sum.Submitted != len(specs) || sum.Done != len(specs) || sum.OK != len(specs) {
		t.Fatalf("summary = %+v", sum)
	}
	var starts int
	var finish *journal.Event
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case journal.SpecStart:
			starts++
		case journal.SweepFinish:
			finish = ev
		case journal.SpecDone:
			if ev.Status != "ok" || ev.Cycles == 0 || ev.IPC <= 0 {
				t.Errorf("spec_done missing counters: %+v", ev)
			}
			if ev.Stored || ev.StoreHit {
				t.Errorf("store flags set without a store: %+v", ev)
			}
		}
	}
	if starts != len(specs) {
		t.Errorf("%d spec_start events for %d fresh simulations", starts, len(specs))
	}
	if finish == nil || finish.Completed != len(specs) || finish.Failed != 0 || finish.ResumeSkips != 0 {
		t.Fatalf("sweep_finish = %+v", finish)
	}
}

// TestJournalResume pins the resume story: a second sweep over the same
// store journals every completion as a store hit, counts them as resume
// skips, and the first run's journal records every completion as stored
// with its entry actually on disk (the invariant the CI resume gate
// validates after a SIGKILL).
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	specs := journalSpecs()

	first := sweepJournal(t, dir, 2, true, specs)
	storeDir := filepath.Join(dir, "store")
	keys := journal.CompletedKeys(first, true)
	if len(keys) != len(specs) {
		t.Fatalf("first run stored %d completions, want %d", len(keys), len(specs))
	}
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok, err := st.Get(k); err != nil || !ok {
			t.Fatalf("journaled stored key %q not in store (ok=%v err=%v)", k, ok, err)
		}
	}

	// Resume: fresh runner, same store, new journal.
	path := filepath.Join(dir, "resume.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.02)
	r.Jobs = 2
	r.Journal = j
	r.Store = st
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.StoreHits != len(specs) {
		t.Fatalf("resumed sweep journaled %d store hits, want %d", sum.StoreHits, len(specs))
	}
	for _, ev := range events {
		switch ev.Type {
		case journal.SpecStart:
			t.Errorf("resumed sweep journaled a fresh simulation start: %+v", ev)
		case journal.SweepFinish:
			if ev.ResumeSkips != len(specs) {
				t.Errorf("sweep_finish resumeSkips = %d, want %d", ev.ResumeSkips, len(specs))
			}
		case journal.SpecDone:
			if !ev.StoreHit || ev.Stored {
				t.Errorf("resumed spec_done flags: %+v", ev)
			}
			if ev.StoreKey == "" {
				t.Errorf("resumed spec_done without store key: %+v", ev)
			}
		}
	}
}

// TestJournalFaultEvents pins the failure taxonomy: a watchdog-expired
// spec journals a fault spec_done plus a watchdog_expiry marker, and is
// never recorded as stored.
func TestJournalFaultEvents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := NewRunner(0.02)
	r.Journal = j
	r.Store = st
	r.KeepGoing = true
	r.MaxCycles = 100 // every run trips the watchdog
	specs := journalSpecs()[:2]
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Faults != len(specs) {
		t.Fatalf("journaled %d faults, want %d", sum.Faults, len(specs))
	}
	watchdogs := 0
	for _, ev := range events {
		switch ev.Type {
		case journal.WatchdogExpiry:
			watchdogs++
		case journal.SpecDone:
			if ev.Status != "fault" || ev.Fault == "" || ev.Error == "" {
				t.Errorf("fault spec_done incomplete: %+v", ev)
			}
			if ev.Stored {
				t.Errorf("watchdog fault recorded as stored: %+v", ev)
			}
		}
	}
	if watchdogs != len(specs) {
		t.Errorf("%d watchdog_expiry events, want %d", watchdogs, len(specs))
	}
	if len(journal.CompletedKeys(events, true)) != 0 {
		t.Error("watchdog faults must not journal stored completions")
	}
}

// TestBareRunNotJournaled pins the scoping rule: Run/RunCtx outside a
// Sweep — the experiments' serial assembly phase — emit no spec events.
func TestBareRunNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.02)
	r.Journal = j
	if _, err := r.Run(journalSpecs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 { // header + trailer only
		t.Fatalf("bare Run journaled %d events, want 2: %+v", len(events), events)
	}
}

// TestNilJournalAllocFree pins the disabled-journal overhead contract:
// with no journal attached, the memoized per-spec path allocates exactly
// what it did before journaling existed — the spec-key string — and the
// journal layer adds zero allocations to it.
func TestNilJournalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds in normal builds")
	}
	r := NewRunner(0.02)
	rs := journalSpecs()[0]
	if _, err := r.Run(rs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := testing.AllocsPerRun(200, func() {
		_ = rs.key()
	})
	got := testing.AllocsPerRun(200, func() {
		if _, err := r.RunCtx(ctx, rs); err != nil {
			t.Fatal(err)
		}
	})
	if got > base {
		t.Errorf("cache-hit RunCtx with nil journal allocates %.0f/op, key construction alone is %.0f/op", got, base)
	}
}
