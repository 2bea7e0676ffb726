package harness

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfd/internal/config"
	"cfd/internal/obs/journal"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// commitSpecs are eight quick specs on two configs.
func commitSpecs() []RunSpec {
	gshare := config.SandyBridge()
	gshare.Predictor = config.PredGshare
	var specs []RunSpec
	for _, cfg := range []config.Core{config.SandyBridge(), gshare} {
		for _, w := range []string{"bzip2like", "soplexlike"} {
			for _, v := range []workload.Variant{workload.Base, workload.CFD} {
				specs = append(specs, RunSpec{Workload: w, Variant: v, Config: cfg})
			}
		}
	}
	return specs
}

// commitSweep runs specs through a journaled sweep on a store in dir whose
// I/O passes through inject, and returns the runner, the journal's events
// and the sweep's error.
func commitSweep(ctx context.Context, t *testing.T, dir string, specs []RunSpec, inject func(op, path string) error) (*Runner, []journal.Event, error) {
	t.Helper()
	st, err := OpenStore(filepath.Join(dir, "store"), store.WithBackoff([]time.Duration{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.InjectOpError = inject
	path := filepath.Join(dir, "sweep.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.02)
	r.Jobs = 3
	r.KeepGoing = true
	r.Store = st
	r.Journal = j
	_, serr := r.Sweep(ctx, specs)
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
	return r, events, serr
}

// checkCommitJournal requires the journal's stored completions to be on
// disk and its sweep_finish to count every spec_done, and returns the
// spec_done events.
func checkCommitJournal(t *testing.T, st *store.Store, events []journal.Event) []journal.Event {
	t.Helper()
	for _, key := range journal.CompletedKeys(events, true) {
		if _, ok, err := st.Get(key); !ok || err != nil {
			t.Errorf("journal records %s as stored, but the store has no entry (err %v)", key, err)
		}
	}
	var done []journal.Event
	finishes := 0
	for _, ev := range events {
		switch ev.Type {
		case journal.SpecDone:
			done = append(done, ev)
		case journal.SweepFinish:
			finishes++
			if got := ev.Completed + ev.Failed; got != len(done) {
				t.Errorf("sweep_finish counts %d completions, the journal has %d spec_done before it", got, len(done))
			}
		}
	}
	if finishes != 1 {
		t.Errorf("journal has %d sweep_finish events, want 1", finishes)
	}
	return done
}

// TestSweepCommitOrdering pins the contract of a sweep's committer: a
// spec_done says stored:true only for an entry whose batch was written and
// fsynced, so the journal's stored completions are a subset of the store,
// and sweep_finish counts every spec_done. Every other batch's fsync fails,
// the first batch's included, so every entry of a failed batch must say
// stored:false, and a fresh handle must not serve it. CI runs it under
// -race -count=10.
func TestSweepCommitOrdering(t *testing.T) {
	dir := t.TempDir()
	specs := commitSpecs()
	var syncs atomic.Int64
	inject := func(op, path string) error {
		if op == "sync" && syncs.Add(1)%2 == 1 {
			return errors.New("injected EIO")
		}
		return nil
	}
	r, events, err := commitSweep(context.Background(), t, dir, specs, inject)
	if err != nil {
		t.Fatal(err)
	}
	done := checkCommitJournal(t, r.Store, events)
	if len(done) != len(specs) {
		t.Fatalf("%d spec_done events, want %d", len(done), len(specs))
	}
	fresh, err := OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, ev := range done {
		_, served, err := fresh.Get(ev.StoreKey)
		if ev.Status != "ok" || ev.Stored != served || err != nil {
			t.Errorf("%s: status %s, stored %v; a fresh handle serves it: %v (err %v)", ev.Key, ev.Status, ev.Stored, served, err)
		}
		if ev.Stored {
			stored++
		}
	}
	if m := r.Store.Metrics(); stored == len(specs) || m.Puts != uint64(stored) || m.PutFailures != uint64(len(specs)-stored) {
		t.Errorf("store metrics %+v with %d of %d specs stored, want a failed batch, a put per stored spec and a failure per other", m, stored, len(specs))
	}
}

// TestCancelledSweepDrainsCommitter: a cancelled sweep returns only after
// its committer has written every completion queued behind a stalled
// write, and journaled each before sweep_finish.
func TestCancelledSweepDrainsCommitter(t *testing.T) {
	dir := t.TempDir()
	specs := commitSpecs()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The committer's first write waits until the cancel lands, so the
	// completions before it are still queued when the sweep starts to
	// drain.
	gate := make(chan struct{})
	inject := func(op, path string) error {
		if op == "create" {
			<-gate
		}
		return nil
	}
	var mu sync.Mutex
	simulated := 0
	testOnSimulate = func(RunSpec) {
		mu.Lock()
		defer mu.Unlock()
		simulated++
		if simulated == 5 {
			cancel()
			close(gate)
		}
	}
	defer func() { testOnSimulate = nil }()
	r, events, err := commitSweep(ctx, t, dir, specs, inject)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v", err)
	}
	if n, _ := r.Store.Len(); n != simulated {
		t.Errorf("store holds %d entries after the sweep returned, want all %d simulated", n, simulated)
	}
	done := checkCommitJournal(t, r.Store, events)
	if len(done) != simulated {
		t.Errorf("%d spec_done events, want one per simulated spec (%d)", len(done), simulated)
	}
	for _, ev := range done {
		if !ev.Stored {
			t.Errorf("%s: spec_done says stored:false", ev.Key)
		}
	}
}

// TestResultKeepsMSHRHistAfterRelease: the Runner releases each core once
// its Result is built, and later cores reuse the released arrays; a
// Result's MSHR histogram must not be among them.
func TestResultKeepsMSHRHistAfterRelease(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRunner(0.02)
	rs := RunSpec{Workload: "astar1like", Variant: workload.CFD, Config: config.SandyBridge(), SampleMSHR: true}
	res, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	hist := slices.Clone(res.MSHRHist)
	var sampled uint64
	for _, n := range hist {
		sampled += n
	}
	if sampled != res.Stats.Cycles {
		t.Fatalf("MSHR histogram covers %d cycles, want %d", sampled, res.Stats.Cycles)
	}
	for _, other := range commitSpecs() {
		other.SampleMSHR = true
		if _, err := r.Run(other); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res.MSHRHist, hist) {
		t.Error("a Result's MSHR histogram changed after its core was released and reused")
	}
}
