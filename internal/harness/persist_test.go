package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/obs/journal"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// testStore opens a store in a temp dir bound to the harness payload.
func testStore(t *testing.T) (dir string) {
	t.Helper()
	return t.TempDir()
}

func openTestStore(t *testing.T, dir string) *Runner {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	r := NewRunner(0.02)
	r.Store = st
	return r
}

// persistSpecs is a small matrix exercising every result shape the store
// must round-trip: plain counters, per-branch maps, the MSHR histogram,
// and the sampled timeseries/occupancy sections.
func persistSpecs() []RunSpec {
	cfg := config.SandyBridge()
	return []RunSpec{
		{Workload: "soplexlike", Variant: workload.Base, Config: cfg},
		{Workload: "soplexlike", Variant: "cfd", Config: cfg},
		{Workload: "astar1like", Variant: "cfd", Config: cfg, SampleMSHR: true},
		{Workload: "mcflike", Variant: "cfd", Config: cfg, SampleEvery: 500},
	}
}

// TestStoreRoundTripFidelity: a result restored from the store must be
// deeply equal to the freshly simulated one — same counters, CPI stack,
// energy events, histograms, and telemetry sections — so every consumer
// (tables, JSON export, traces) is byte-identical whether the run was
// computed or restored.
func TestStoreRoundTripFidelity(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()

	a := openTestStore(t, dir)
	fresh, err := a.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("populate sweep: %v", err)
	}

	b := openTestStore(t, dir)
	var simulated []string
	restore := func(rs RunSpec) { simulated = append(simulated, rs.key()) }
	testOnSimulate = restore
	defer func() { testOnSimulate = nil }()
	restored, err := b.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("restore sweep: %v", err)
	}
	if len(simulated) != 0 {
		t.Fatalf("restore sweep re-simulated %v", simulated)
	}
	if m := b.Store.Metrics(); m.Hits != uint64(len(specs)) || m.Quarantines != 0 {
		t.Fatalf("restore store metrics: %+v", m)
	}
	for i := range specs {
		if !reflect.DeepEqual(fresh[i], restored[i]) {
			t.Errorf("spec %d (%s): restored result differs\nfresh:    %+v\nrestored: %+v",
				i, specs[i].key(), fresh[i], restored[i])
		}
	}
	// The runner-level metrics are identical too: a store restore counts
	// exactly like a simulation, so resumed sweeps export the same
	// per-experiment metric deltas as uninterrupted ones.
	if am, bm := a.Metrics(), b.Metrics(); am != bm {
		t.Errorf("metrics diverge: fresh %+v restored %+v", am, bm)
	}
}

// TestStoreResumesPartialSweep models the kill-and-rerun cycle: a sweep
// that completed only a prefix before dying re-runs just the missing
// cells and converges to the same results.
func TestStoreResumesPartialSweep(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()

	a := openTestStore(t, dir)
	if _, err := a.Sweep(context.Background(), specs[:2]); err != nil {
		t.Fatalf("partial sweep: %v", err)
	}

	full := openTestStore(t, t.TempDir())
	want, err := full.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	b := openTestStore(t, dir)
	var simulated atomic.Int64 // bumped by concurrent workers
	testOnSimulate = func(RunSpec) { simulated.Add(1) }
	defer func() { testOnSimulate = nil }()
	got, err := b.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if n := simulated.Load(); n != int64(len(specs)-2) {
		t.Fatalf("resumed sweep simulated %d cells, want %d", n, len(specs)-2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep results differ from uninterrupted run")
	}
}

// TestStorePersistsDeterministicFaults: a typed simulation fault lands in
// the store and a resumed run reports the identical failure without
// re-simulating — deterministic faults are never retried.
func TestStorePersistsDeterministicFaults(t *testing.T) {
	_, violator := registerCorruptWorkloads(t)
	dir := testStore(t)
	spec := RunSpec{Workload: violator, Variant: workload.Base, Config: config.SandyBridge()}

	a := openTestStore(t, dir)
	_, errA := a.Run(spec)
	if errA == nil {
		t.Fatal("violator run should fault")
	}
	if _, ok := fault.As(errA); !ok {
		t.Fatalf("expected a typed fault, got %v", errA)
	}

	b := openTestStore(t, dir)
	testOnSimulate = func(RunSpec) { t.Error("persisted fault was re-simulated") }
	defer func() { testOnSimulate = nil }()
	_, errB := b.Run(spec)
	if errB == nil {
		t.Fatal("restored run should report the memoized fault")
	}
	if errA.Error() != errB.Error() {
		t.Errorf("fault message drifted:\n fresh:    %s\n restored: %s", errA, errB)
	}
	fa, _ := fault.As(errA)
	fb, ok := fault.As(errB)
	if !ok {
		t.Fatalf("restored error lost its typed fault: %v", errB)
	}
	if fa.Kind != fb.Kind || !reflect.DeepEqual(fa.Snap, fb.Snap) {
		t.Errorf("fault kind/snapshot drifted: %+v vs %+v", fa, fb)
	}
}

// TestWatchdogFaultsAreNotPersisted: budget-bound failures are properties
// of the Runner's watchdog settings, not the spec, so they must never
// poison the store for an unbounded rerun.
func TestWatchdogFaultsAreNotPersisted(t *testing.T) {
	dir := testStore(t)
	spec := persistSpecs()[0]

	a := openTestStore(t, dir)
	a.MaxCycles = 50
	if _, err := a.Run(spec); err == nil {
		t.Fatal("50-cycle budget should expire")
	}
	if n := a.Store.Len(); n != 0 {
		t.Fatalf("watchdog fault persisted: %d entries", n)
	}

	b := openTestStore(t, dir) // no budget
	if _, err := b.Run(spec); err != nil {
		t.Fatalf("unbounded rerun: %v", err)
	}
}

// TestStoreScaleDoesNotAlias: sweeps at different -scale values share a
// store directory without serving each other's results.
func TestStoreScaleDoesNotAlias(t *testing.T) {
	dir := testStore(t)
	spec := persistSpecs()[0]

	a := openTestStore(t, dir)
	resA, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	b := openTestStore(t, dir)
	b.Scale = 0.06
	resB, err := b.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.Store.Metrics(); m.Hits != 0 {
		t.Fatalf("different scale served from store: %+v", m)
	}
	if resA.Stats.Retired == resB.Stats.Retired {
		t.Fatal("scales 0.02 and 0.06 retired identical work; aliasing test is vacuous")
	}
	if n := b.Store.Len(); n != 2 {
		t.Fatalf("store entries = %d, want 2 (one per scale)", n)
	}
}

// TestStoreCorruptEntryResimulates: a corrupted entry is quarantined and
// transparently re-simulated; the rerun result matches the original and
// heals the store.
func TestStoreCorruptEntryResimulates(t *testing.T) {
	dir := testStore(t)
	spec := persistSpecs()[0]

	a := openTestStore(t, dir)
	want, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "logs", "*.log"))
	if len(logs) != 1 {
		t.Fatalf("logs: %v", logs)
	}
	data, err := os.ReadFile(logs[0]) // the spec's one record
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openTestStore(t, dir)
	got, err := b.Run(spec)
	if err != nil {
		t.Fatalf("run over corrupt entry: %v", err)
	}
	if m := b.Store.Metrics(); m.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", m.Quarantines)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatal("re-simulated result differs from the original")
	}
	// Healed: a third runner restores without simulating.
	c := openTestStore(t, dir)
	testOnSimulate = func(RunSpec) { t.Error("healed entry re-simulated") }
	defer func() { testOnSimulate = nil }()
	if _, err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIOFailureDegradesGracefully: a store whose writes (or reads)
// keep failing never fails the sweep — results stay in memory and cells
// re-simulate.
func TestStoreIOFailureDegradesGracefully(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()[:2]
	// Store both specs first: a Get reads the disk only for a key the
	// store holds.
	if _, err := openTestStore(t, dir).Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	r.Store.InjectOpError = func(op, path string) error {
		if op == "create" || op == "read" {
			return errors.New("injected EIO")
		}
		return nil
	}
	res, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("sweep must survive a dead store: %v", err)
	}
	for i, re := range res {
		if re == nil {
			t.Fatalf("spec %d lost its result", i)
		}
	}
	m := r.Store.Metrics()
	if m.PutFailures == 0 || m.GetFailures == 0 || m.Retries == 0 {
		t.Fatalf("expected counted put/get failures with retries, got %+v", m)
	}
}

// TestStoreParallelSweepShared: concurrent Runners (modeling parallel
// processes) sweeping overlapping specs against one store directory both
// complete with equal results and leave a clean, converged store. Runs
// under -race in CI.
func TestStoreParallelSweepShared(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()

	runners := [2]*Runner{openTestStore(t, dir), openTestStore(t, dir)}
	var out [2][]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, r := range runners {
		r.Jobs = 4
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			out[i], errs[i] = r.Sweep(context.Background(), specs)
		}(i, r)
	}
	wg.Wait()
	for i := range runners {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
	}
	for i := range specs {
		if !reflect.DeepEqual(out[0][i].Stats, out[1][i].Stats) {
			t.Errorf("spec %d: concurrent runners disagree", i)
		}
	}
	for i, r := range runners {
		if q := r.Store.Metrics().Quarantines; q != 0 {
			t.Errorf("runner %d quarantined %d entries under contention", i, q)
		}
	}
	if n := runners[0].Store.Len(); n != len(specs) {
		t.Fatalf("store entries = %d, want %d", n, len(specs))
	}
	// The converged store restores everything for a third runner.
	c := openTestStore(t, dir)
	testOnSimulate = func(rs RunSpec) { t.Errorf("converged store re-simulated %s", rs.key()) }
	defer func() { testOnSimulate = nil }()
	if _, err := c.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDrainPersistsInFlightRuns: cancelling a sweep mid-flight (the
// SIGINT drain path) still writes every completion that was in flight to
// the store, so the resumed process picks up exactly where the drain
// stopped.
func TestStoreDrainPersistsInFlightRuns(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan RunSpec, len(specs))
	testOnSimulate = func(rs RunSpec) {
		started <- rs
		cancel() // interrupt arrives while this simulation is in flight
	}
	r := openTestStore(t, dir)
	r.Jobs = 1 // serial: exactly one spec enters simulate before the cancel lands
	_, err := r.Sweep(ctx, specs)
	testOnSimulate = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v", err)
	}
	close(started)
	var inFlight []RunSpec
	for rs := range started {
		inFlight = append(inFlight, rs)
	}
	if len(inFlight) != 1 {
		t.Fatalf("expected exactly one in-flight simulation, got %d", len(inFlight))
	}
	// The in-flight completion was flushed to the store before Sweep
	// returned: that is the clean-drain guarantee.
	if n := r.Store.Len(); n != 1 {
		t.Fatalf("store entries after drain = %d, want 1", n)
	}
	b := openTestStore(t, dir)
	var (
		mu        sync.Mutex // the hook runs on concurrent workers
		simulated []string
	)
	testOnSimulate = func(rs RunSpec) {
		mu.Lock()
		simulated = append(simulated, rs.Workload)
		mu.Unlock()
	}
	defer func() { testOnSimulate = nil }()
	if _, err := b.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(simulated) != len(specs)-1 {
		t.Fatalf("resume simulated %d cells (%v), want %d", len(simulated), simulated, len(specs)-1)
	}
}

// TestStoreKeyIncludesResolvedN pins the anti-aliasing rule directly: the
// store key must extend the spec key with the effective input size.
func TestStoreKeyIncludesResolvedN(t *testing.T) {
	spec := persistSpecs()[0]
	a, b := NewRunner(0.02), NewRunner(0.06)
	ka, okA := a.storeKey(spec, spec.key())
	kb, okB := b.storeKey(spec, spec.key())
	if !okA || !okB {
		t.Fatal("storeKey failed for a registered workload")
	}
	if ka == kb {
		t.Fatalf("store keys alias across scales: %s", ka)
	}
	if !strings.Contains(ka, "|n=") {
		t.Fatalf("store key missing resolved n: %s", ka)
	}
	if _, ok := NewRunner(1).storeKey(RunSpec{Workload: "no-such"}, "k"); ok {
		t.Fatal("storeKey accepted an unknown workload")
	}
}

// TestStoreSpecMismatchQuarantineNamesBothSpecs: when an entry's envelope
// key matches but its decoded payload holds a different spec, the
// quarantine reason names both spec keys — the one the payload holds and
// the one the lookup wanted.
func TestStoreSpecMismatchQuarantineNamesBothSpecs(t *testing.T) {
	dir := testStore(t)
	specs := persistSpecs()[:2]
	a := openTestStore(t, dir)
	if _, err := a.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	// Cross-plant: publish spec B's payload under spec A's store key. The
	// envelope checks all pass (Put recomputes key and checksum); only the
	// payload-level spec comparison can catch it.
	skeyA, ok := a.storeKey(specs[0], specs[0].key())
	if !ok {
		t.Fatal("storeKey A")
	}
	skeyB, ok := a.storeKey(specs[1], specs[1].key())
	if !ok {
		t.Fatal("storeKey B")
	}
	payloadB, hit, err := a.Store.Get(skeyB)
	if err != nil || !hit {
		t.Fatalf("Get B: hit=%v err=%v", hit, err)
	}
	if err := a.Store.Put(skeyA, payloadB); err != nil {
		t.Fatal(err)
	}

	b := openTestStore(t, dir)
	if _, err := b.Run(specs[0]); err != nil {
		t.Fatalf("run over cross-planted entry: %v", err)
	}
	if m := b.Store.Metrics(); m.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", m.Quarantines)
	}
	reasons, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.reason"))
	if len(reasons) != 1 {
		t.Fatalf("reason sidecars: %v", reasons)
	}
	data, err := os.ReadFile(reasons[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"holds " + specs[1].key(), "want " + specs[0].key()} {
		if !strings.Contains(string(data), want) {
			t.Errorf("reason %q missing %q", data, want)
		}
	}
}

// TestStoreResumesDeadlock: a spec whose run stops retiring fails with a
// deadlock fault, which is a property of the spec, so the store keeps it
// and a resumed sweep reports it as a store hit with the identical error
// text instead of re-paying the stall window.
func TestStoreResumesDeadlock(t *testing.T) {
	const name = "deadlocklike-test"
	if err := workload.Register(&workload.Spec{
		Name:     name,
		Variants: []workload.Variant{workload.Base},
		DefaultN: 1024, TestN: 256,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			// A pop_vq with nothing ever pushed can never issue.
			return prog.NewBuilder().PopVQ(5).Halt().MustBuild(), mem.New(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Deregister(name) })
	specs := []RunSpec{
		{Workload: name, Variant: workload.Base, Config: config.SandyBridge()},
		persistSpecs()[0],
	}
	dir := testStore(t)
	sweep := func(phase string) journal.Event {
		t.Helper()
		r := openTestStore(t, dir)
		r.KeepGoing = true
		jpath := filepath.Join(dir, phase+".journal")
		j, err := journal.Open(jpath, "test")
		if err != nil {
			t.Fatal(err)
		}
		r.Journal = j
		if _, err := r.Sweep(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := journal.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		var done *journal.Event
		for i, ev := range events {
			switch {
			case ev.Type == journal.WatchdogExpiry:
				t.Errorf("%s: a deadlock journaled a watchdog expiry: %+v", phase, ev)
			case ev.Type == journal.SpecDone && ev.Workload == name:
				done = &events[i]
			}
		}
		if done == nil {
			t.Fatalf("%s: no spec_done for %s", phase, name)
		}
		if done.Fault != fault.Deadlock.String() || !strings.Contains(done.Error, "no retirement progress") {
			t.Fatalf("%s: spec_done %+v, want a deadlock fault", phase, *done)
		}
		return *done
	}

	fresh := sweep("fresh")
	if !fresh.Stored || fresh.StoreHit {
		t.Fatalf("fresh deadlock: stored %v, store hit %v; want stored, no hit", fresh.Stored, fresh.StoreHit)
	}
	testOnSimulate = func(rs RunSpec) {
		if rs.Workload == name {
			t.Error("persisted deadlock was re-simulated")
		}
	}
	defer func() { testOnSimulate = nil }()
	resumed := sweep("resumed")
	if !resumed.StoreHit {
		t.Errorf("resumed deadlock is not a store hit: %+v", resumed)
	}
	if resumed.Error != fresh.Error {
		t.Errorf("deadlock text drifted:\n fresh:   %s\n resumed: %s", fresh.Error, resumed.Error)
	}
}
