package harness

import (
	"fmt"
	"io"

	"cfd/internal/config"
	"cfd/internal/manifest"
	"cfd/internal/stats"
	"cfd/internal/workload"
)

// hmean returns the harmonic mean (the paper's IPC aggregation in §VI).
func hmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// ablationSet is the workload set used for the baseline-selection studies.
var ablationSet = []string{"soplexlike", "mcflike", "bzip2like", "astar1like", "tifflike"}

// ckptSweepConfigs enumerates the checkpoint-count sweep configurations.
func ckptSweepConfigs() []config.Core {
	var out []config.Core
	for _, n := range []int{0, 1, 2, 4, 8, 16, 32} {
		cfg := config.SandyBridge()
		cfg.NumCheckpoints = n
		cfg.Name = fmt.Sprintf("ckpt-%d", n)
		out = append(out, cfg)
	}
	return out
}

// ckptPolicies enumerates the recovery-policy study configurations.
func ckptPolicies() []struct {
	name string
	cfg  config.Core
} {
	var out []struct {
		name string
		cfg  config.Core
	}
	for _, pol := range []struct {
		name      string
		ooo, conf bool
	}{
		{"OoO reclaim + confidence-guided (paper's best)", true, true},
		{"OoO reclaim, every branch", true, false},
		{"in-order reclaim + confidence-guided", false, true},
		{"in-order reclaim, every branch", false, false},
	} {
		cfg := config.SandyBridge()
		cfg.CkptOoOReclaim = pol.ooo
		cfg.CkptConfGuided = pol.conf
		cfg.Name = "policy-" + pol.name
		out = append(out, struct {
			name string
			cfg  config.Core
		}{pol.name, cfg})
	}
	return out
}

// predCfg derives the predictor-study configuration for one kind.
func predCfg(k config.PredictorKind) config.Core {
	cfg := config.SandyBridge()
	cfg.Predictor = k
	cfg.Name = "pred-" + k.String()
	return cfg
}

// ablationConfigs flattens the checkpoint sweep and policy study into one
// manifest config list.
func ablationConfigs() []config.Core {
	out := ckptSweepConfigs()
	for _, pol := range ckptPolicies() {
		out = append(out, pol.cfg)
	}
	return out
}

func init() {
	registerExp(&Experiment{
		ID:    "ablation-ckpt",
		Title: "§VI baseline selection: checkpoint count and recovery policy",
		Manifest: expManifest("ablation-ckpt", manifest.Sweep{
			Workloads: byNames(ablationSet...),
			Variants:  variants("base"),
			Configs:   mutationsFor(ablationConfigs()...),
		}),
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Checkpoint count sweep (OoO reclaim, confidence-guided): harmonic-mean baseline IPC",
				"checkpoints", "hmean IPC")
			for _, cfg := range ckptSweepConfigs() {
				var ipcs []float64
				for _, name := range ablationSet {
					res, err := r.Run(RunSpec{Workload: name, Variant: workload.Base, Config: cfg})
					if err != nil {
						return err
					}
					ipcs = append(ipcs, res.Stats.IPC())
				}
				t.Addf(cfg.NumCheckpoints, hmean(ipcs))
			}
			fmt.Fprintln(w, t)

			t2 := stats.NewTable("Recovery policy at 8 checkpoints: harmonic-mean baseline IPC",
				"policy", "hmean IPC")
			for _, pol := range ckptPolicies() {
				var ipcs []float64
				for _, name := range ablationSet {
					res, err := r.Run(RunSpec{Workload: name, Variant: workload.Base, Config: pol.cfg})
					if err != nil {
						return err
					}
					ipcs = append(ipcs, res.Stats.IPC())
				}
				t2.Addf(pol.name, hmean(ipcs))
			}
			fmt.Fprintln(w, t2)
			_, err := fmt.Fprintln(w, "expected shape: IPC levels off by 8 checkpoints; the aggressive policy wins (§VI)")
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "ablation-pred",
		Title: "§VI baseline selection: branch predictor class",
		Manifest: expManifest("ablation-pred", manifest.Sweep{
			Workloads: byNames(ablationSet...),
			Variants:  variants("base"),
			Configs: mutationsFor(
				predCfg(config.PredBimodal),
				predCfg(config.PredGshare),
				predCfg(config.PredISLTAGE)),
		}),
		Run: func(r *Runner, w io.Writer) error {
			kinds := []config.PredictorKind{config.PredBimodal, config.PredGshare, config.PredISLTAGE}
			t := stats.NewTable("Baseline MPKI and IPC per predictor",
				"workload", "bimodal MPKI", "gshare MPKI", "isl-tage MPKI", "isl-tage IPC")
			for _, name := range ablationSet {
				row := []string{name}
				var lastIPC float64
				for _, k := range kinds {
					res, err := r.Run(RunSpec{Workload: name, Variant: workload.Base, Config: predCfg(k)})
					if err != nil {
						return err
					}
					row = append(row, fmt.Sprintf("%.2f", res.Stats.MPKI()))
					lastIPC = res.Stats.IPC()
				}
				row = append(row, fmt.Sprintf("%.3f", lastIPC))
				t.Add(row...)
			}
			fmt.Fprintln(w, t)
			_, err := fmt.Fprintln(w, "expected shape: ISL-TAGE <= gshare <= bimodal MPKI; the remaining MPKI is what CFD removes")
			return err
		},
	})
}
