package harness

import (
	"bytes"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/pipeline"
	"cfd/internal/workload"
)

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(0.02)
	rs := RunSpec{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()}
	a, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs must return the memoized result")
	}
}

func TestRunnerRejectsUnknownWorkload(t *testing.T) {
	r := NewRunner(0.02)
	if _, err := r.Run(RunSpec{Workload: "nope", Variant: workload.Base, Config: config.SandyBridge()}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSpeedupHelpers(t *testing.T) {
	base := &Result{Stats: statsWith(1000, 500), EnergyTotal: 100}
	v := &Result{Stats: statsWith(500, 600), EnergyTotal: 80}
	if got := Speedup(base, v); got != 2.0 {
		t.Errorf("Speedup = %v", got)
	}
	if got := EnergyReduction(base, v); got < 0.199 || got > 0.201 {
		t.Errorf("EnergyReduction = %v", got)
	}
	if got := EffIPC(base, v); got != 1.0 {
		t.Errorf("EffIPC = %v (base retired / v cycles)", got)
	}
}

func statsWith(cycles, retired uint64) (s pipeline.Stats) {
	s.Cycles = cycles
	s.Retired = retired
	return s
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-ckpt", "ablation-hwpf", "ablation-ifconv", "ablation-pred",
		"fig1", "fig17", "fig18", "fig19", "fig2a", "fig2b", "fig20",
		"fig21a", "fig21b", "fig21c", "fig22", "fig23", "fig24",
		"fig25a", "fig25b", "fig26", "fig27", "fig28", "fig6",
		"table1", "table2", "table3", "table4", "table5", "table6",
	}
	all := AllExperiments()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %d experiments: %v", len(all), ids)
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
}

// TestExperimentsRunAtTinyScale smoke-tests every experiment end to end.
func TestExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(0.01)
	for _, e := range AllExperiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(r, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

func TestFig18ShapeAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(0.05)
	var buf bytes.Buffer
	e, _ := ByID("fig18")
	if err := e.Run(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "soplexlike") || !strings.Contains(out, "geometric-mean") {
		t.Errorf("fig18 output incomplete:\n%s", out)
	}
	// The headline claim: CFD speeds up the CFD-class workloads.
	base, err := r.Run(RunSpec{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge()})
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := r.Run(RunSpec{Workload: "soplexlike", Variant: workload.CFD, Config: config.SandyBridge()})
	if err != nil {
		t.Fatal(err)
	}
	if sp := Speedup(base, cfd); sp < 1.2 {
		t.Errorf("soplexlike CFD speedup = %.2f, want > 1.2", sp)
	}
	if cfd.Stats.MPKI() > base.Stats.MPKI()/4 {
		t.Errorf("CFD MPKI %.2f not far below base %.2f", cfd.Stats.MPKI(), base.Stats.MPKI())
	}
}

// pipelineStats aliases the pipeline stats type for test construction.
