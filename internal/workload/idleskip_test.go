package workload

import (
	"bytes"
	"reflect"
	"testing"

	"cfd/internal/config"
	"cfd/internal/obs"
	"cfd/internal/pipeline"
)

// TestIdleSkipEquivalence pins the idle-cycle fast-forward's correctness
// contract: a run with skipping enabled must produce bit-identical
// statistics — cycle count, every CPI-stack bucket, every stall counter,
// per-branch stats — to a run simulating each cycle individually. The
// tiny contended core and the stall-on-BQ-miss policy maximize the frozen
// stretches the skip collapses.
//
// Each case also runs observed — an interval sampler on an odd period, the
// MSHR sampler and a mid-run trace window — because the hooks take skipped
// spans in one step instead of turning skipping off. The observed run must
// match the unobserved one, and its samples, occupancy and MSHR histograms
// and Perfetto trace must not depend on skipping.
func TestIdleSkipEquivalence(t *testing.T) {
	tiny := config.SandyBridge()
	tiny.ROBSize = 32
	tiny.IQSize = 8
	tiny.LQSize = 8
	tiny.SQSize = 6
	tiny.NumPhysRegs = 64
	tiny.VQSize = 16
	tiny.NumCheckpoints = 1
	tiny.Name = "tiny"

	stall := config.SandyBridge()
	stall.BQMissPolicy = config.StallFetch

	cfgs := []struct {
		name string
		cfg  config.Core
	}{
		{"sandybridge", config.SandyBridge()},
		{"stallpolicy", stall},
		{"tiny", tiny},
	}
	for _, tc := range cfgs {
		for _, name := range []string{"astar1like", "astar2like", "mcflike"} {
			s, ok := ByName(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			for _, v := range s.Variants {
				t.Run(tc.name+"/"+name+"/"+string(v), func(t *testing.T) {
					t.Parallel()
					p, m, err := s.BuildFor(tc.cfg, v, 1000)
					if err != nil {
						t.Fatal(err)
					}
					run := func(observe, skip bool) *pipeline.Core {
						cfg := tc.cfg
						var opts []pipeline.Option
						if !skip {
							opts = append(opts, pipeline.WithoutIdleSkip())
						}
						if observe {
							cfg.Cache.SampleMSHRs = true
							opts = append(opts, pipeline.WithTraceWindow(300, 400), pipeline.WithObserver(
								obs.NewObserver(97, cfg.BQSize, cfg.VQSize, cfg.TQSize)))
						}
						core, err := pipeline.New(cfg, p, m.Clone(), opts...)
						if err != nil {
							t.Fatal(err)
						}
						if err := core.Run(0); err != nil {
							t.Fatalf("observe=%v skip=%v: %v", observe, skip, err)
						}
						return core
					}
					fast, slow := run(false, true), run(false, false)
					if fast.Stats.Cycles != slow.Stats.Cycles {
						t.Errorf("cycles diverge: skip=%d exact=%d",
							fast.Stats.Cycles, slow.Stats.Cycles)
					}
					if !reflect.DeepEqual(fast.Stats, slow.Stats) {
						t.Errorf("stats diverge with idle skipping\nskip:  %+v\nexact: %+v",
							fast.Stats, slow.Stats)
					}
					if tot := fast.Stats.CPI.Total(); tot != fast.Stats.Cycles {
						t.Errorf("CPI stack sums to %d, want %d cycles", tot, fast.Stats.Cycles)
					}
					if !fast.Mem().Equal(slow.Mem()) {
						t.Error("memory diverges with idle skipping")
					}

					obsFast, obsSlow := run(true, true), run(true, false)
					if !reflect.DeepEqual(obsFast.Stats, fast.Stats) {
						t.Errorf("observing changes the run\nobserved:   %+v\nunobserved: %+v",
							obsFast.Stats, fast.Stats)
					}
					fo, so := obsFast.Observer(), obsSlow.Observer()
					if !reflect.DeepEqual(fo.Samples, so.Samples) {
						t.Errorf("samples diverge with idle skipping\nskip:  %+v\nexact: %+v",
							fo.Samples, so.Samples)
					}
					if !reflect.DeepEqual(fo.Occupancy(), so.Occupancy()) {
						t.Errorf("occupancy diverges with idle skipping\nskip:  %+v\nexact: %+v",
							fo.Occupancy(), so.Occupancy())
					}
					if hf, hs := obsFast.Hierarchy().Hist, obsSlow.Hierarchy().Hist; !reflect.DeepEqual(hf, hs) {
						t.Errorf("MSHR histogram diverges with idle skipping\nskip:  %v\nexact: %v", hf, hs)
					}
					var tf, ts bytes.Buffer
					if err := obsFast.PerfettoTrace().Encode(&tf); err != nil {
						t.Fatal(err)
					}
					if err := obsSlow.PerfettoTrace().Encode(&ts); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(tf.Bytes(), ts.Bytes()) {
						t.Error("Perfetto trace diverges with idle skipping")
					}
				})
			}
		}
	}
}
