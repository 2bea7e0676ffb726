package pipeline

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/workload"
)

// runOutcome is what a run leaves that a Result or a verify reads.
type runOutcome struct {
	stats Stats
	regs  [isa.NumRegs]uint64
	mem   *mem.Memory
	hist  []uint64
}

// TestRecycledCoreEquivalence: a core built on arrays that a released core
// left in the pools runs exactly like a core built on fresh ones. The
// specs change the predictor, the window, the depth and MSHR sampling from
// one to the next, so each core reuses arrays a different configuration
// dirtied; every run's Stats, registers, memory and MSHR histogram must
// equal the fresh core's.
func TestRecycledCoreEquivalence(t *testing.T) {
	s, ok := workload.ByName("soplexlike")
	if !ok {
		t.Fatal("soplexlike not registered")
	}
	gshare := config.SandyBridge()
	gshare.Predictor = config.PredGshare
	bimodal := config.Scaled(512)
	bimodal.Predictor = config.PredBimodal
	sampled := config.Scaled(256)
	sampled.Cache.SampleMSHRs = true
	deep := config.SandyBridge().WithDepth(15)
	deep.Cache.SampleMSHRs = true
	specs := []struct {
		v   workload.Variant
		cfg config.Core
	}{
		{workload.Base, config.SandyBridge()},
		{workload.CFD, gshare},
		{workload.Base, bimodal},
		{workload.CFD, sampled},
		{workload.Base, deep},
		{workload.CFD, config.SandyBridge()},
		{workload.Base, sampled},
	}
	run := func(v workload.Variant, cfg config.Core, release bool) runOutcome {
		t.Helper()
		p, m, err := s.Build(v, cpiN)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("%s on %s: %v", v, cfg.Name, err)
		}
		out := runOutcome{c.Stats, c.ArchRegs(), c.Mem(), c.Hierarchy().Hist}
		if release {
			c.Release()
		}
		return out
	}

	// Two collections empty the pools, so the references run on fresh
	// arrays; with the collector off afterwards, the pools keep what each
	// release returns.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fresh := make([]runOutcome, len(specs))
	for i, sp := range specs {
		fresh[i] = run(sp.v, sp.cfg, false)
	}
	for i, sp := range specs {
		got := run(sp.v, sp.cfg, true)
		want := fresh[i]
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("spec %d (%s on %s): recycled core's Stats differ from a fresh core's", i, sp.v, sp.cfg.Name)
		}
		if got.regs != want.regs {
			t.Errorf("spec %d (%s on %s): recycled core's registers differ", i, sp.v, sp.cfg.Name)
		}
		if !got.mem.Equal(want.mem) {
			t.Errorf("spec %d (%s on %s): recycled core's memory differs", i, sp.v, sp.cfg.Name)
		}
		if !reflect.DeepEqual(got.hist, want.hist) {
			t.Errorf("spec %d (%s on %s): recycled core's MSHR histogram differs", i, sp.v, sp.cfg.Name)
		}
	}
}

// TestReleasedCorePanics: Release nils what it returns to the pools, so a
// released core that is run again panics instead of sharing arrays with
// the core that reuses them.
func TestReleasedCorePanics(t *testing.T) {
	c, err := New(config.SandyBridge(), cfdLoop(0x10000, 0x80000, 100, 50), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	c.Release() // a second release is a no-op
	defer func() {
		if recover() == nil {
			t.Error("a released core ran without panicking")
		}
	}()
	c.Run(0)
}
