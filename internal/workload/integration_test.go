package workload

import (
	"testing"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/pipeline"
)

// TestPipelineMatchesEmulatorAllVariants is the end-to-end correctness
// gate: every workload variant must leave the cycle-level core's committed
// memory identical to the functional emulator's, and variants must retire
// the same instruction count on both models.
func TestPipelineMatchesEmulatorAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := config.SandyBridge()
	for _, s := range All() {
		for _, v := range s.Variants {
			s, v := s, v
			t.Run(s.Name+"/"+string(v), func(t *testing.T) {
				t.Parallel()
				n := s.TestN
				p, m, err := s.Build(v, n)
				if err != nil {
					t.Fatal(err)
				}
				em := emu.New(p, m.Clone())
				if err := em.Run(100_000_000); err != nil {
					t.Fatal(err)
				}
				core, err := pipeline.New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				if err := core.Run(0); err != nil {
					t.Fatalf("pipeline: %v\n%s", err, core.Dump())
				}
				if !em.Mem.Equal(core.Mem()) {
					t.Error("pipeline memory diverges from emulator")
				}
				if core.Stats.Retired != em.Retired {
					t.Errorf("pipeline retired %d, emulator %d", core.Stats.Retired, em.Retired)
				}
			})
		}
	}
}

// TestPipelineMatchesEmulatorStallPolicy repeats the gate under the
// stall-on-BQ-miss policy, which exercises a different fetch path.
func TestPipelineMatchesEmulatorStallPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := config.SandyBridge()
	cfg.BQMissPolicy = config.StallFetch
	for _, name := range []string{"tifflike", "soplexlike", "astar1like"} {
		s, _ := ByName(name)
		for _, v := range s.Variants {
			p, m, err := s.Build(v, s.TestN)
			if err != nil {
				t.Fatal(err)
			}
			em := emu.New(p, m.Clone())
			if err := em.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			core, err := pipeline.New(cfg, p, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Run(0); err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			if !em.Mem.Equal(core.Mem()) {
				t.Errorf("%s/%s diverges under stall policy", name, v)
			}
		}
	}
}

// TestPipelineMatchesEmulatorTinyWindow runs the CFD variants on a
// minimal, heavily contended core: small window, one checkpoint, shallow
// queues — the regime where recovery and stall corner cases live. Each
// program is compiled for that core, so CFD+ strip-mines to its small VQ.
func TestPipelineMatchesEmulatorTinyWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := config.SandyBridge()
	cfg.ROBSize = 32
	cfg.IQSize = 8
	cfg.LQSize = 8
	cfg.SQSize = 6
	cfg.NumPhysRegs = 64
	cfg.VQSize = 16 // a full VQ must fit in the PRF (config.Validate)
	cfg.NumCheckpoints = 1
	cfg.Name = "tiny"
	for _, name := range []string{"soplexlike", "astar1like", "astar2like", "tifflike"} {
		s, _ := ByName(name)
		for _, v := range s.Variants {
			p, m, err := s.BuildFor(cfg, v, 1000)
			if err != nil {
				t.Fatal(err)
			}
			em := emu.New(p, m.Clone())
			if err := em.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			core, err := pipeline.New(cfg, p, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Run(0); err != nil {
				t.Fatalf("%s/%s: %v\n%s", name, v, err, core.Dump())
			}
			if !em.Mem.Equal(core.Mem()) {
				t.Errorf("%s/%s diverges on the tiny core", name, v)
			}
		}
	}
}

// TestBQFullStallHappensAndResolves: the strip-mined loops fill the BQ to
// its architectural size; fetch must stall pushes (§III-C3) and always make
// progress again.
func TestBQFullStallHappensAndResolves(t *testing.T) {
	s, _ := ByName("soplexlike")
	p, m, err := s.Build(CFD, 2000)
	if err != nil {
		t.Fatal(err)
	}
	core, err := pipeline.New(config.SandyBridge(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		t.Fatal(err)
	}
	if core.Stats.BQFullStalls == 0 {
		t.Error("expected BQ-full fetch stalls with back-to-back full chunks")
	}
}
