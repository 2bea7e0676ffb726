package harness

import (
	"fmt"
	"io"

	"cfd/internal/config"
	"cfd/internal/manifest"
	"cfd/internal/stats"
	"cfd/internal/workload"
)

// crossoverNames lists the crossover workloads in CD-size order.
func crossoverNames() []string {
	names := make([]string, len(workload.CrossoverCDs))
	for i, cd := range workload.CrossoverCDs {
		names[i] = workload.CrossoverName(cd)
	}
	return names
}

func init() {
	registerExp(&Experiment{
		ID:    "ablation-ifconv",
		Title: "If-conversion vs CFD across control-dependent region sizes (the Fig 6c class boundary)",
		Manifest: expManifest("ablation-ifconv", manifest.Sweep{
			Workloads: byNames(crossoverNames()...),
			Variants:  variants("base", "ifconvert", "cfd+"),
		}),
		Run: runIfConvCrossover,
	})
}

// runIfConvCrossover reproduces the paper's classification argument
// quantitatively: small CD regions (hammocks) belong to if-conversion,
// large ones to CFD (§II-B). The crossover workloads run one compute-only
// kernel with an unpredictable LCG-derived predicate across CD sizes, each
// transformed both ways by the automatic pass.
func runIfConvCrossover(r *Runner, w io.Writer) error {
	cfg := config.SandyBridge()
	t := stats.NewTable("speedup vs base per CD size (compute-only kernel, ~50% taken)",
		"CD insts", "if-conversion", "cfd (VQ)", "winner")
	for _, cd := range workload.CrossoverCDs {
		var cycles [3]uint64
		for j, v := range []workload.Variant{workload.Base, workload.IfConvert, workload.CFDPlus} {
			res, err := r.Run(RunSpec{Workload: workload.CrossoverName(cd), Variant: v, Config: cfg})
			if err != nil {
				return err
			}
			cycles[j] = res.Stats.Cycles
		}
		icSp := float64(cycles[0]) / float64(cycles[1])
		cfdSp := float64(cycles[0]) / float64(cycles[2])
		winner := "if-conversion"
		if cfdSp > icSp {
			winner = "cfd"
		}
		t.Add(fmt.Sprint(2+cd), stats.Ratio(icSp), stats.Ratio(cfdSp), winner)
	}
	fmt.Fprintln(w, t)
	_, err := fmt.Fprintln(w, "expected shape: if-conversion wins small CD regions (hammock class), CFD wins large ones (separable class) — the §II-B classification boundary")
	return err
}
