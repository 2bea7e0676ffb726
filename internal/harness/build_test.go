package harness

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// TestBuildCacheSharesBuilds: specs that differ only in core fields the
// build does not read share one Build, built once even when they ask
// concurrently; a different queue capacity or input size is a different
// build; and a panicking builder runs once and fails every spec that
// shares its key.
func TestBuildCacheSharesBuilds(t *testing.T) {
	const name, crash = "countlike-test", "countcrashlike-test"
	var builds, crashes atomic.Int64
	for _, s := range []*workload.Spec{
		{
			Name: name, Variants: []workload.Variant{workload.Base}, DefaultN: 1024, TestN: 256,
			Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
				builds.Add(1)
				m := mem.New()
				m.Write(0x1000, 8, uint64(n))
				return prog.NewBuilder().Halt().MustBuild(), m, nil
			},
		},
		{
			Name: crash, Variants: []workload.Variant{workload.Base}, DefaultN: 1024, TestN: 256,
			Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
				crashes.Add(1)
				panic("deliberately corrupt builder")
			},
		},
	} {
		if err := workload.Register(s); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { workload.Deregister(s.Name) })
	}

	small := config.SandyBridge()
	small.BQSize = 64
	configs := []config.Core{config.SandyBridge(), config.Scaled(640), config.SandyBridge().WithDepth(20), small}
	c := newBuildCache()
	got := make([][2]*Build, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		for j, n := range []int64{256, 512} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := c.get(RunSpec{Workload: name, Variant: workload.Base, Config: cfg}, n)
				if err != nil {
					t.Error(err)
				}
				got[i][j] = b
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < 3; i++ {
		if got[i] != got[0] {
			t.Errorf("%s does not share the baseline's builds", configs[i].Name)
		}
	}
	if got[3][0] == got[0][0] {
		t.Error("a core with another BQ size shares the baseline's build")
	}
	if got[0][0] == got[0][1] {
		t.Error("two input sizes share one build")
	}
	if n := builds.Load(); n != 4 {
		t.Errorf("builder ran %d times for 4 distinct builds", n)
	}
	if v := got[0][1].img.Clone().Read(0x1000, 8); v != 512 {
		t.Errorf("cached image reads %d, want the build's own 512", v)
	}

	for _, cfg := range configs[:3] {
		_, err := c.get(RunSpec{Workload: crash, Variant: workload.Base, Config: cfg}, 256)
		if f, ok := fault.As(err); !ok || f.Kind != fault.RuntimePanic {
			t.Errorf("%s: err = %v, want a runtime-panic fault", cfg.Name, err)
		}
	}
	if n := crashes.Load(); n != 1 {
		t.Errorf("panicking builder ran %d times for one build key", n)
	}
}

// TestReducedConfigsRunAlike pins that the run key is complete: every
// listed workload variant runs at n 256, each spec on a Build of its own so
// nothing is shared, on the baseline, on a renamed baseline and, for a
// program without a BranchBQ, on the baseline with the other BQ-miss
// policy. Both reduce to the baseline's run key (pipeline.Reduce), so
// their results must be identical to the baseline's apart from Spec. The
// specs sample the MSHRs and the time series so every Result field is
// compared.
func TestReducedConfigsRunAlike(t *testing.T) {
	base := config.SandyBridge()
	renamed := base
	renamed.Name = "renamed"
	stall := base
	stall.BQMissPolicy = config.StallFetch
	var policyShared, policyKept int
	for _, s := range workload.All() {
		for _, v := range s.Variants {
			run := func(cfg config.Core) (*Result, *Build) {
				rs := RunSpec{Workload: s.Name, Variant: v, Config: cfg, SampleMSHR: true, SampleEvery: 500}
				b, err := NewBuild(rs, 256)
				if err != nil {
					t.Fatalf("%s/%s: %v", s.Name, v, err)
				}
				res, _, err := Simulate(rs, b, false, nil)
				if err != nil {
					t.Fatalf("%s/%s on %s: %v", s.Name, v, cfg.Name, err)
				}
				res.Spec = RunSpec{}
				return res, b
			}
			want, b := run(base)
			others := []config.Core{renamed}
			if pipeline.Reduce(stall, b.prog) == pipeline.Reduce(base, b.prog) {
				others = append(others, stall)
				policyShared++
			} else {
				policyKept++
			}
			for _, cfg := range others {
				if got, _ := run(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: the run on %s (policy %s) differs from the baseline's",
						s.Name, v, cfg.Name, cfg.BQMissPolicy)
				}
			}
		}
	}
	if policyShared == 0 || policyKept == 0 {
		t.Errorf("%d variants share the two policies and %d keep them apart; want both kinds", policyShared, policyKept)
	}
}

// TestSweepSharedRunsMatchRun: a sweep whose specs share runs and golden
// replays returns, for every spec, exactly what Runner.Run returns outside
// a sweep, where nothing is shared. The specs are a baseline and a cfd
// program, each on the baseline core, a renamed one and the stall policy,
// plus perfect prediction on the baseline program under the last two; four
// workers take them in order, so workers can wait on one run and on one
// golden replay at once.
// The cfd program reads the policy, so its two policies stay two runs with
// different results; and every spec counts as a simulation.
func TestSweepSharedRunsMatchRun(t *testing.T) {
	base := config.SandyBridge()
	renamed := base
	renamed.Name = "renamed"
	stall := base
	stall.BQMissPolicy = config.StallFetch
	var specs []RunSpec
	for _, v := range []workload.Variant{workload.Base, workload.CFD} {
		for _, cfg := range []config.Core{base, renamed, stall} {
			specs = append(specs, RunSpec{Workload: "soplexlike", Variant: v, Config: cfg})
		}
	}
	specs = append(specs, RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: renamed, PerfectAll: true},
		RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: stall, PerfectAll: true})

	r := NewRunner(0.001)
	r.Verify = true
	r.Jobs = 4
	got, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range specs {
		alone := NewRunner(r.Scale)
		alone.Verify = true
		want, err := alone.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s/%s on %s (policy %s): the sweep's result differs from Runner.Run's",
				rs.Workload, rs.Variant, rs.Config.Name, rs.Config.BQMissPolicy)
		}
	}
	if spec, stalled := got[3].Stats, got[5].Stats; reflect.DeepEqual(spec, stalled) || stalled.BQMissStalls == 0 {
		t.Errorf("the cfd program's two policies ran alike (%d BQ-miss stall cycles)", stalled.BQMissStalls)
	}
	if m := r.Metrics(); m.Simulations != uint64(len(specs)) || m.CacheHits != 0 {
		t.Errorf("metrics %+v, want %d simulations and no cache hits", m, len(specs))
	}
}

// TestFailedSharedRunIsNotHandedOn: a shared run that fails is not handed
// to the specs waiting for it; each runs its own, so every fault text
// names its own spec's config.
func TestFailedSharedRunIsNotHandedOn(t *testing.T) {
	var specs []RunSpec
	for _, name := range []string{"first", "second", "third"} {
		cfg := config.SandyBridge()
		cfg.Name = name
		specs = append(specs, RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: cfg})
	}
	r := NewRunner(0.001)
	r.MaxCycles = 200
	r.KeepGoing = true
	r.Jobs = 3
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	fails := r.Failures()
	if len(fails) != len(specs) {
		t.Fatalf("%d failures, want %d", len(fails), len(specs))
	}
	for _, fl := range fails {
		if f, ok := fault.As(fl.Err); !ok || f.Kind != fault.WatchdogExpiry {
			t.Errorf("%s: %v, want a watchdog-expiry fault", fl.Spec.Config.Name, fl.Err)
		}
		if want := " on " + fl.Spec.Config.Name + ": "; !strings.Contains(fl.Err.Error(), want) {
			t.Errorf("the fault of the spec on %s does not name its config: %v", fl.Spec.Config.Name, fl.Err)
		}
	}
}

// TestSharedPanicsReleaseWaiters: a shared run that panics, and a golden
// replay that panics, release every spec waiting for them. A waiter on a
// panicked run simulates its own; every verified run of a build whose
// golden replay panics panics with the same value.
func TestSharedPanicsReleaseWaiters(t *testing.T) {
	rs := RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge()}
	b, err := NewBuild(rs, 256)
	if err != nil {
		t.Fatal(err)
	}
	renamed := rs
	renamed.Config.Name = "renamed"

	// The leader panics once the waiter has found its run in the cache.
	c := newBuildCache()
	started, arrived := make(chan struct{}), make(chan struct{})
	leader := make(chan any)
	go func() {
		defer func() { leader <- recover() }()
		c.run(rs, b, func() (*Result, error) {
			close(started)
			<-arrived
			panic("deliberately corrupt run")
		})
	}()
	<-started
	waiter := make(chan *Result)
	go func() {
		close(arrived)
		res, _ := c.run(renamed, b, func() (*Result, error) { return &Result{EnergyTotal: 1}, nil })
		waiter <- res
	}()
	if v := <-leader; v != "deliberately corrupt run" {
		t.Errorf("the leader recovered %v, want its own panic", v)
	}
	if res := <-waiter; res == nil || res.EnergyTotal != 1 || res.Spec != (RunSpec{}) {
		t.Errorf("the waiter on a panicked run returned %+v, want the result of its own simulation", res)
	}

	// The replay panics once all three verified runs have asked for it.
	asked := make(chan struct{}, 3)
	replay := sync.OnceValues(func() (*emu.Machine, error) {
		for range 3 {
			<-asked
		}
		panic("deliberately corrupt golden replay")
	})
	b.golden = func() (*emu.Machine, error) {
		asked <- struct{}{}
		return replay()
	}
	panics := make(chan any)
	for _, cfg := range []config.Core{config.SandyBridge(), config.Scaled(256), config.SandyBridge().WithDepth(15)} {
		go func() {
			defer func() { panics <- recover() }()
			Simulate(RunSpec{Workload: rs.Workload, Variant: rs.Variant, Config: cfg}, b, true, nil)
		}()
	}
	for range 3 {
		if v := <-panics; v != "deliberately corrupt golden replay" {
			t.Errorf("a verified run recovered %v, want the golden replay's panic", v)
		}
	}
}

// TestVerifyUsesTheBuildsGolden: a verified run compares the core against
// its build's golden replay. Given the replay of another input size, the
// same run fails verification.
func TestVerifyUsesTheBuildsGolden(t *testing.T) {
	rs := RunSpec{Workload: "soplexlike", Variant: workload.CFD, Config: config.SandyBridge()}
	b, err := NewBuild(rs, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Simulate(rs, b, true, nil); err != nil {
		t.Fatalf("against its own golden replay: %v", err)
	}
	other, err := NewBuild(rs, 512)
	if err != nil {
		t.Fatal(err)
	}
	b.golden = other.golden
	if _, _, err := Simulate(rs, b, true, nil); err == nil || !strings.Contains(err.Error(), "differential verification") {
		t.Errorf("against another build's golden replay: err = %v, want a verification failure", err)
	}
}
