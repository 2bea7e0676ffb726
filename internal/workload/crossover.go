package workload

import (
	"fmt"

	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/xform"
)

// The crossover workloads quantify the §II-B class boundary for
// ablation-ifconv: one compute-only kernel whose predicate comes from a
// linear-congruential register (~50% taken, unpredictable), with a
// control-dependent region of 2+cd instructions. If-conversion wins the
// small regions (the hammock class) and CFD the large ones (the separable
// class). They need no memory image, and only that ablation runs them, so
// they stay out of All.

// CrossoverCDs are the filler sizes of the crossover workloads: workload
// crossover-cd<N> has a control-dependent region of 2+N instructions.
var CrossoverCDs = []int{1, 4, 10, 18, 26}

// CrossoverName names the crossover workload of filler size cd.
func CrossoverName(cd int) string { return fmt.Sprintf("crossover-cd%d", cd) }

func init() {
	for _, cd := range CrossoverCDs {
		register(&Spec{
			Name:     CrossoverName(cd),
			Analog:   "if-conversion crossover (§II-B)",
			Class:    prog.SeparableTotal,
			Variants: []Variant{Base, IfConvert, CFDPlus},
			DefaultN: 40_000,
			TestN:    2_000,
			Kernel:   crossoverKernel(cd),
			Unlisted: true,
		})
	}
}

// crossoverKernel returns the Kernel func of crossover-cd<cd>.
func crossoverKernel(cd int) func(n int64) (xform.Form, *mem.Memory, error) {
	return func(n int64) (xform.Form, *mem.Memory, error) {
		// The ablation's own floor, above the Runner's 256: shorter runs
		// read lower CFD speedups (at -scale 0.02, 800 iterations, 1.78x
		// against 1.88x for the 3-instruction region).
		n = max(n, 2000)
		region := []isa.Inst{
			ri(isa.SHRI, 9, 7, 3),
			rr(isa.ADD, 12, 12, 9),
		}
		for i := 0; i < cd; i++ {
			switch i % 3 {
			case 0:
				region = append(region, rr(isa.XOR, 10, 12, 9))
			case 1:
				region = append(region, ri(isa.SHRI, 11, 10, 2))
			case 2:
				region = append(region, rr(isa.ADD, 12, 12, 11))
			}
		}
		k := &xform.Kernel{
			Name: CrossoverName(cd),
			Init: []isa.Inst{
				li(7, 88172645463325252),
				li(15, 6364136223846793),
				li(4, n),
				li(12, 0),
			},
			Slice: []isa.Inst{
				rr(isa.MUL, 7, 7, 15),
				ri(isa.ADDI, 7, 7, 1442695040888963),
				ri(isa.SHRI, 8, 7, 63),
			},
			CD:      region,
			Pred:    8,
			Counter: 4,
			Scratch: []isa.Reg{20, 21, 22, 23, 24, 25, 26},
			NoAlias: true,
			Note:    "crossover predicate",
		}
		return k, mem.New(), nil
	}
}
