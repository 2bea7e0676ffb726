package workload

import (
	"testing"

	"cfd/internal/emu"
	"cfd/internal/prog"
)

// runEmu executes a workload variant on the functional emulator.
func runEmu(t *testing.T, s *Spec, v Variant, n int64) *emu.Machine {
	t.Helper()
	p, m, err := s.Build(v, n)
	if err != nil {
		t.Fatalf("%s/%s: %v", s.Name, v, err)
	}
	mc := emu.New(p, m)
	if err := mc.Run(100_000_000); err != nil {
		t.Fatalf("%s/%s: %v", s.Name, v, err)
	}
	return mc
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"astar1like", "astar2like", "bzip2like", "eclatlike",
		"gromacslike", "h264like", "hammocklike", "inseparablelike", "jpeglike",
		"mcflike", "mummerlike", "namdlike", "soplexlike", "streamlike", "tifflike", "tiffmedianlike",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d workloads, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name != want[i] {
			t.Errorf("workload %d = %s, want %s", i, s.Name, want[i])
		}
		if _, ok := ByName(s.Name); !ok {
			t.Errorf("ByName(%s) missing", s.Name)
		}
	}
}

func TestAllVariantsMatchBaseline(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			base := runEmu(t, s, Base, s.TestN)
			for _, v := range s.Variants {
				if v == Base {
					continue
				}
				got := runEmu(t, s, v, s.TestN)
				if !base.Mem.Equal(got.Mem) {
					t.Errorf("%s/%s final memory diverges from base", s.Name, v)
				}
				if got.BQ.Len() != 0 {
					t.Errorf("%s/%s leaves %d BQ entries", s.Name, v, got.BQ.Len())
				}
				if got.VQ.Len() != 0 {
					t.Errorf("%s/%s leaves %d VQ entries", s.Name, v, got.VQ.Len())
				}
				if got.TQ.Len() != 0 {
					t.Errorf("%s/%s leaves %d TQ entries", s.Name, v, got.TQ.Len())
				}
			}
		})
	}
}

func TestVariantsDeclaredAreBuildable(t *testing.T) {
	for _, s := range All() {
		for _, v := range s.Variants {
			if _, _, err := s.Build(v, 64); err != nil {
				t.Errorf("%s/%s: %v", s.Name, v, err)
			}
		}
		if _, _, err := s.Build(Variant("bogus"), 64); err == nil {
			t.Errorf("%s accepted a bogus variant", s.Name)
		}
		if !s.HasVariant(Base) {
			t.Errorf("%s lacks a Base variant", s.Name)
		}
	}
}

func TestSeparableAnnotations(t *testing.T) {
	for _, s := range All() {
		p, _, err := s.Build(Base, s.TestN)
		if err != nil {
			t.Fatal(err)
		}
		pcs := SeparablePCs(p)
		if s.Class.Separable() && len(pcs) == 0 {
			t.Errorf("%s: CFD-class workload has no separable-annotated branches", s.Name)
		}
		if s.Class == prog.EasyToPredict && len(pcs) != 0 {
			t.Errorf("%s: easy workload has separable annotations", s.Name)
		}
	}
}

func TestCFDVariantsUseQueues(t *testing.T) {
	type count struct{ push, pop, vq, tq int }
	for _, s := range All() {
		for _, v := range s.Variants {
			if v == Base || v == DFD {
				continue
			}
			p, _, _ := s.Build(v, s.TestN)
			var c count
			for _, in := range p.Insts {
				switch in.Op.String() {
				case "push_bq":
					c.push++
				case "branch_bq":
					c.pop++
				case "push_vq", "pop_vq":
					c.vq++
				case "push_tq", "pop_tq":
					c.tq++
				}
			}
			switch v {
			case CFD, CFDDFD, CFDBQ:
				if c.push == 0 || c.pop == 0 {
					t.Errorf("%s/%s: no BQ instructions", s.Name, v)
				}
			case CFDPlus:
				if c.vq == 0 {
					t.Errorf("%s/%s: no VQ instructions", s.Name, v)
				}
			case CFDTQ:
				if c.tq == 0 {
					t.Errorf("%s/%s: no TQ instructions", s.Name, v)
				}
			case CFDBQTQ:
				if c.tq == 0 || c.push == 0 {
					t.Errorf("%s/%s: missing TQ or BQ instructions", s.Name, v)
				}
			}
		}
	}
}

func TestInstructionOverheads(t *testing.T) {
	// CFD variants retire more instructions than base for the same work
	// (Table III); the overhead factor must stay within plausible bounds.
	for _, s := range CFDClass() {
		base := runEmu(t, s, Base, s.TestN)
		for _, v := range s.Variants {
			if v == Base {
				continue
			}
			got := runEmu(t, s, v, s.TestN)
			ratio := float64(got.Retired) / float64(base.Retired)
			// astar region #1's three-loop decoupling plus the DFD
			// prefetch loop is the heaviest combination (the paper's
			// region #1 alone is 1.86x, DFD 1.31x).
			if ratio < 0.85 || ratio > 3.3 {
				t.Errorf("%s/%s overhead = %.2f, outside [0.85, 3.3]", s.Name, v, ratio)
			}
		}
	}
}

func TestAstar1EarlyExitTriggers(t *testing.T) {
	s, _ := ByName("astar1like")
	base := runEmu(t, s, Base, s.TestN)
	// The early exit fires ~95% through: strictly fewer iterations than n
	// were fully processed. The cnt result must be positive and below n.
	cnt := base.Mem.Read(astar1Result+8, 8)
	if cnt == 0 || cnt >= uint64(s.TestN) {
		t.Errorf("astar1 processed cnt = %d, want within (0, %d)", cnt, s.TestN)
	}
}

func TestAstar2TripCountsRespected(t *testing.T) {
	s, _ := ByName("astar2like")
	base := runEmu(t, s, Base, s.TestN)
	tq := runEmu(t, s, CFDTQ, s.TestN)
	if base.Mem.Read(astar2Result, 8) != tq.Mem.Read(astar2Result, 8) {
		t.Error("TQ variant accumulator differs")
	}
	if base.Mem.Read(astar2Result+8, 8) != tq.Mem.Read(astar2Result+8, 8) {
		t.Error("TQ variant count differs")
	}
}

func TestDefaultSizesUsable(t *testing.T) {
	for _, s := range All() {
		if s.DefaultN <= 0 || s.TestN <= 0 || s.TestN > s.DefaultN {
			t.Errorf("%s sizes: default=%d test=%d", s.Name, s.DefaultN, s.TestN)
		}
	}
}

// TestCrossoverWorkloads: ByName finds each crossover workload, All (which
// every registry-wide selection reads) lists none of them, and each
// variant leaves the base's accumulator r12 on the emulator. The kernel
// stores nothing, so the memory comparison of TestAllVariantsMatchBaseline
// would not see a wrong transform.
func TestCrossoverWorkloads(t *testing.T) {
	for _, s := range All() {
		if s.Unlisted {
			t.Errorf("All lists the unlisted workload %s", s.Name)
		}
	}
	for _, name := range []string{"crossover-cd1", "crossover-cd4", "crossover-cd10", "crossover-cd18", "crossover-cd26"} {
		s, ok := ByName(name)
		if !ok {
			t.Errorf("ByName(%s) missing", name)
			continue
		}
		base := runEmu(t, s, Base, s.TestN)
		if base.Regs[12] == 0 {
			t.Fatalf("%s/base leaves r12 zero", name)
		}
		for _, v := range s.Variants {
			if got := runEmu(t, s, v, s.TestN); got.Regs[12] != base.Regs[12] {
				t.Errorf("%s/%s: r12 = %#x, base %#x", name, v, got.Regs[12], base.Regs[12])
			}
		}
	}
}

// TestClassAnnotationsMatchClassifier: every kernel workload, listed or
// not, is annotated with the class the pass's classifier gives its kernel.
// Class stays a hand annotation because deriving it at registration would
// build every workload's memory image in every process.
func TestClassAnnotationsMatchClassifier(t *testing.T) {
	specs := All()
	for _, cd := range CrossoverCDs {
		s, _ := ByName(CrossoverName(cd))
		specs = append(specs, s)
	}
	for _, s := range specs {
		if s.Kernel == nil {
			continue
		}
		f, _, err := s.Kernel(s.TestN)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if cls, err := f.Classify(); cls != s.Class || err != nil {
			t.Errorf("%s: annotated %v, classified %v (%v)", s.Name, s.Class, cls, err)
		}
	}
}
