package harness

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// registerCorruptWorkloads installs two transient deliberately broken
// workloads: one whose builder panics outright, and one whose program
// commits a BQ ordering violation mid-run. Cleanup deregisters both.
func registerCorruptWorkloads(t *testing.T) (crash, violator string) {
	t.Helper()
	crash, violator = "crashlike-test", "violatorlike-test"
	if err := workload.Register(&workload.Spec{
		Name:     crash,
		Variants: []workload.Variant{workload.Base},
		DefaultN: 1024, TestN: 256,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			panic("deliberately corrupt builder")
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Deregister(crash) })
	if err := workload.Register(&workload.Spec{
		Name:     violator,
		Variants: []workload.Variant{workload.Base},
		DefaultN: 1024, TestN: 256,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			// Pops a predicate that was never pushed: a queue-violation
			// fault once the branch_bq retires.
			p := prog.NewBuilder().
				Nop().
				BranchBQ("out").Label("out").Halt().MustBuild()
			return p, mem.New(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Deregister(violator) })
	return crash, violator
}

// TestSweepContainment is the acceptance scenario: a sweep over the full
// workload x variant matrix with deliberately corrupted workloads mixed in
// completes every healthy run, reports each failure as a structured typed
// fault, and never dies on the in-simulation panic. The panicking builder
// also runs under a second config with the same queues, so two specs share
// its one build: both must fail as runtime-panic, each under its own
// config, and neither may wait forever on the other.
func TestSweepContainment(t *testing.T) {
	crash, violator := registerCorruptWorkloads(t)

	cfg := config.SandyBridge()
	var specs []RunSpec
	corrupt := map[int]bool{}
	for _, s := range workload.All() {
		for _, v := range s.Variants {
			if s.Name == crash || s.Name == violator {
				corrupt[len(specs)] = true
			}
			specs = append(specs, RunSpec{Workload: s.Name, Variant: v, Config: cfg})
		}
	}
	wide := config.Scaled(256)
	corrupt[len(specs)] = true
	specs = append(specs, RunSpec{Workload: crash, Variant: workload.Base, Config: wide})
	if len(corrupt) != 3 {
		t.Fatalf("expected 3 corrupt specs in the matrix, got %d", len(corrupt))
	}

	r := NewRunner(0.02)
	r.Jobs = 4
	r.KeepGoing = true
	var (
		out  []*Result
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		out, err = r.Sweep(context.Background(), specs)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("sweep blocked")
	}
	if err != nil {
		t.Fatalf("keep-going sweep failed outright: %v", err)
	}
	if len(out) != len(specs) {
		t.Fatalf("sweep returned %d results for %d specs", len(out), len(specs))
	}
	for i, res := range out {
		if corrupt[i] && res != nil {
			t.Errorf("corrupt spec %s/%s produced a result", specs[i].Workload, specs[i].Variant)
		}
		if !corrupt[i] && res == nil {
			t.Errorf("healthy spec %s/%s lost its result to containment", specs[i].Workload, specs[i].Variant)
		}
	}

	fails := r.Failures()
	if len(fails) != 3 {
		t.Fatalf("Failures() returned %d entries, want 3: %v", len(fails), fails)
	}
	for _, fl := range fails {
		f, ok := fault.As(fl.Err)
		if !ok {
			t.Fatalf("failure %v is not a typed fault", fl.Err)
		}
		switch fl.Spec.Workload {
		case crash:
			if f.Kind != fault.RuntimePanic {
				t.Errorf("builder panic on %s recorded as %v, want runtime-panic", fl.Spec.Config.Name, f.Kind)
			}
			if !strings.Contains(fl.Err.Error(), " on "+fl.Spec.Config.Name+": ") {
				t.Errorf("builder panic on %s does not name its config: %v", fl.Spec.Config.Name, fl.Err)
			}
		case violator:
			if f.Kind != fault.QueueViolation {
				t.Errorf("BQ violation recorded as %v, want queue-violation", f.Kind)
			}
		}
	}
}

// TestRunWatchdogFault: the Runner's MaxCycles budget converts a
// too-long simulation into a typed watchdog fault rather than a hang.
func TestRunWatchdogFault(t *testing.T) {
	r := NewRunner(0.02)
	r.MaxCycles = 500
	_, err := r.Run(RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge()})
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("err = %v, want watchdog-expiry fault", err)
	}
}

// TestOraclePreRunBudget: the Runner's budget also bounds the emulator's
// oracle pre-run of a perfect-prediction spec, counted in retired
// instructions. A budget one below the spec's retired count stops the
// pre-run, so the fault names the pre-run and an instruction budget.
func TestOraclePreRunBudget(t *testing.T) {
	rs := RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge(), PerfectAll: true}
	res, err := NewRunner(0.001).Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.001)
	r.MaxCycles = res.Stats.Retired - 1
	_, err = r.Run(rs)
	if f, ok := fault.As(err); !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("MaxCycles %d: err = %v, want a watchdog-expiry fault", r.MaxCycles, err)
	}
	for _, want := range []string{"oracle pre-run", "instruction budget exhausted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("the fault does not name the %s: %v", want, err)
		}
	}
}

// TestOwnProgramsUnderRunnerBudget: ablation-ifconv's crossover workloads
// run as the specs its manifest declares, under the Runner's settings. A
// cycle budget stops them with a typed watchdog fault; with KeepGoing every
// declared spec is memoized as one, so Failures (and the export's faults
// section) holds them all; and -verify replays each on the emulator, the
// cross-check the All-driven workload tests do not reach, since All does
// not list these workloads.
func TestOwnProgramsUnderRunnerBudget(t *testing.T) {
	e, _ := ByID("ablation-ifconv")
	specs, err := e.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 15 {
		t.Fatalf("ablation-ifconv declares %d specs, want 15", len(specs))
	}

	r := NewRunner(0.02)
	r.MaxCycles = 1000
	err = r.RunExperiment(e, io.Discard)
	if f, ok := fault.As(err); !ok || f.Kind != fault.WatchdogExpiry {
		t.Errorf("MaxCycles 1000: err = %v, want a watchdog-expiry fault", err)
	}

	r = NewRunner(0.02)
	r.MaxCycles = 1000
	r.KeepGoing = true
	if err := r.RunExperiment(e, io.Discard); err == nil {
		t.Error("MaxCycles 1000 with KeepGoing: the table rendered from faulted runs")
	}
	fails := r.Failures()
	if len(fails) != len(specs) {
		t.Fatalf("MaxCycles 1000 with KeepGoing: %d failures, want one per declared spec (%d)", len(fails), len(specs))
	}
	for i, fl := range fails {
		if fl.Spec.key() != specs[i].key() {
			t.Errorf("failure %d is %s, want %s", i, fl.Spec.key(), specs[i].key())
		}
		if f, ok := fault.As(fl.Err); !ok || f.Kind != fault.WatchdogExpiry {
			t.Errorf("%s/%s: %v, want a watchdog-expiry fault", fl.Spec.Workload, fl.Spec.Variant, fl.Err)
		}
	}

	r = NewRunner(0.02)
	r.Verify = true
	if err := r.RunExperiment(e, io.Discard); err != nil {
		t.Errorf("under -verify: %v", err)
	}
	if got := len(r.Results()); got != len(specs) {
		t.Errorf("under -verify: %d results, want %d", got, len(specs))
	}
}

// TestSweepKeepGoingCallerCancel: caller cancellation still aborts a
// keep-going sweep — keep-going tolerates failing specs, not a dead caller.
func TestSweepKeepGoingCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(0.02)
	r.KeepGoing = true
	specs := []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()},
	}
	if _, err := r.Sweep(ctx, specs); !errors.Is(err, context.Canceled) {
		t.Fatalf("keep-going sweep under canceled ctx = %v, want context.Canceled", err)
	}
}
