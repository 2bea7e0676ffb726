package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cfd/internal/config"
	"cfd/internal/manifest"
	"cfd/internal/workload"
)

// TestSweepDeterminism is the headline contract of the parallel harness:
// the same experiment produces byte-identical output whether the
// simulations ran serially or fanned out across 8 workers.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	e, _ := ByID("fig18")
	outputs := make([]string, 2)
	for i, jobs := range []int{1, 8} {
		r := NewRunner(0.05)
		r.Jobs = jobs
		var buf bytes.Buffer
		if err := e.Run(r, &buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		outputs[i] = buf.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("fig18 output differs between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestRunIsReproducible runs a set of specs on two independent runners and
// requires identical Stats — simulation must be a pure function of the
// spec and scale.
func TestRunIsReproducible(t *testing.T) {
	specs := []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "soplexlike", Variant: workload.CFD, Config: config.SandyBridge()},
		{Workload: "astar2like", Variant: workload.CFDBQTQ, Config: config.SandyBridge()},
		{Workload: "mcflike", Variant: workload.DFD, Config: config.SandyBridge()},
	}
	a, b := NewRunner(0.02), NewRunner(0.02)
	a.Jobs, b.Jobs = 1, 4
	for _, rs := range specs {
		ra, err := a.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Stats, rb.Stats) {
			t.Errorf("%s/%s: stats differ between independent runners", rs.Workload, rs.Variant)
		}
	}
}

// TestRunnerSingleflight hammers one spec from many goroutines: every
// caller must get the same memoized *Result (one simulation, not eight).
func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(0.02)
	rs := RunSpec{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()}
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(rs)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer: duplicate simulation", i)
		}
	}
}

// TestSweepOrderAndDedup checks that Sweep returns results in specs order
// and that duplicate specs share one memoized result.
func TestSweepOrderAndDedup(t *testing.T) {
	r := NewRunner(0.02)
	r.Jobs = 4
	specs := []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "mummerlike", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
	}
	out, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(out), len(specs))
	}
	for i, res := range out {
		if res.Spec.Workload != specs[i].Workload {
			t.Errorf("result %d is for %s, want %s", i, res.Spec.Workload, specs[i].Workload)
		}
	}
	if out[0] != out[2] {
		t.Error("duplicate specs did not share one memoized result")
	}
}

// TestSweepFirstErrorWins: the reported error is the lowest-index failure,
// matching what the serial path would have returned.
func TestSweepFirstErrorWins(t *testing.T) {
	r := NewRunner(0.02)
	r.Jobs = 4
	specs := []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "no-such-workload", Variant: workload.Base, Config: config.SandyBridge()},
		{Workload: "also-missing", Variant: workload.Base, Config: config.SandyBridge()},
	}
	_, err := r.Sweep(context.Background(), specs)
	if err == nil {
		t.Fatal("sweep with an unknown workload succeeded")
	}
	if want := `unknown workload "no-such-workload"`; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error = %v, want the lowest-index failure (%s)", err, want)
	}
}

// TestSweepCancellation: a canceled context aborts the sweep.
func TestSweepCancellation(t *testing.T) {
	r := NewRunner(0.02)
	r.Jobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := make([]RunSpec, 16)
	for i := range specs {
		cfg := config.SandyBridge()
		cfg.Name = fmt.Sprintf("cancel-%d", i)
		specs[i] = RunSpec{Workload: "bzip2like", Variant: workload.Base, Config: cfg}
	}
	if _, err := r.Sweep(ctx, specs); !errors.Is(err, context.Canceled) {
		t.Errorf("sweep on a canceled context returned %v, want context.Canceled", err)
	}
}

// TestVerifyModeAcceptsWorkloads: with Verify set, runs still succeed —
// the pipeline's retired state matches the golden model.
func TestVerifyModeAcceptsWorkloads(t *testing.T) {
	r := NewRunner(0.02)
	r.Verify = true
	for _, rs := range []RunSpec{
		{Workload: "soplexlike", Variant: workload.CFDPlus, Config: config.SandyBridge()},
		{Workload: "astar2like", Variant: workload.CFDTQ, Config: config.SandyBridge()},
	} {
		if _, err := r.Run(rs); err != nil {
			t.Errorf("%s/%s: %v", rs.Workload, rs.Variant, err)
		}
	}
}

// TestQueueCapacityManifest: every CFD-family variant, compiled for a core
// with a shrunken or grown BQ, VQ or TQ, either verifies against the
// emulator or is refused at build time because the transform cannot fit
// the queue — it never deadlocks.
func TestQueueCapacityManifest(t *testing.T) {
	m, err := manifest.Load("../../examples/manifest/queues.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := SpecsFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0) // every workload at the 256-item floor
	r.Verify = true
	r.KeepGoing = true
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	fails := r.Failures()
	for _, f := range fails {
		if !strings.Contains(f.Err.Error(), "exceeds the BQ capacity") {
			t.Errorf("%s: %v", f.Spec.Key(), f.Err)
		}
	}
	if got := len(r.Results()) + len(fails); got != len(specs) {
		t.Errorf("%d of %d specs finished", got, len(specs))
	}
}

// TestErrorsAreMemoized: a failing spec stays failed without re-simulating
// (simulation is deterministic; the memoized error is the contract).
func TestErrorsAreMemoized(t *testing.T) {
	r := NewRunner(0.02)
	rs := RunSpec{Workload: "nope", Variant: workload.Base, Config: config.SandyBridge()}
	_, err1 := r.Run(rs)
	_, err2 := r.Run(rs)
	if err1 == nil || err2 == nil {
		t.Fatal("unknown workload accepted")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("memoized error changed: %v vs %v", err1, err2)
	}
}
