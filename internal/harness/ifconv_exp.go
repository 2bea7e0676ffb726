package harness

import (
	"fmt"
	"io"

	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/stats"
	"cfd/internal/workload"
	"cfd/internal/xform"
)

func init() {
	registerExp(&Experiment{
		ID:    "ablation-ifconv",
		Title: "If-conversion vs CFD across control-dependent region sizes (the Fig 6c class boundary)",
		Run:   runIfConvCrossover,
	})
}

// runIfConvCrossover reproduces the paper's classification argument
// quantitatively: small CD regions (hammocks) belong to if-conversion,
// large ones to CFD (§II-B). A compute-only kernel with an unpredictable
// LCG-derived predicate is swept across CD sizes and transformed both
// ways by the automatic pass. All (CD size × scheme) simulations are
// submitted up front and fan out across the worker pool; the rows are
// assembled in sweep order from the completed results.
func runIfConvCrossover(r *Runner, w io.Writer) error {
	n := int64(40000 * r.Scale)
	if n < 2000 {
		n = 2000
	}
	cdSizes := []int{1, 4, 10, 18, 26}
	// Build the 3 program variants per CD size serially (cheap), then run
	// all 15 simulations concurrently. The kernel needs no memory image.
	cfg := config.SandyBridge()
	img := mem.New()
	var runs []ownRun
	for _, cd := range cdSizes {
		k := crossoverKernel(n, cd)
		base, err := k.Base()
		if err != nil {
			return err
		}
		ic, err := k.IfConvert()
		if err != nil {
			return err
		}
		cfdP, err := k.CFD(xform.ParamsFrom(cfg), true)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("crossover-cd%d", cd)
		runs = append(runs,
			ownRun{RunSpec{Workload: name, Variant: workload.Base, Config: cfg}, newBuild(base, img)},
			ownRun{RunSpec{Workload: name, Variant: "ifconvert", Config: cfg}, newBuild(ic, img)},
			ownRun{RunSpec{Workload: name, Variant: workload.CFDPlus, Config: cfg}, newBuild(cfdP, img)})
	}
	res, err := r.runOwn(runs)
	if err != nil {
		return err
	}

	t := stats.NewTable("speedup vs base per CD size (compute-only kernel, ~50% taken)",
		"CD insts", "if-conversion", "cfd (VQ)", "winner")
	for i, cd := range cdSizes {
		bc, icc, cc := res[3*i].Stats.Cycles, res[3*i+1].Stats.Cycles, res[3*i+2].Stats.Cycles
		icSp := float64(bc) / float64(icc)
		cfdSp := float64(bc) / float64(cc)
		winner := "if-conversion"
		if cfdSp > icSp {
			winner = "cfd"
		}
		t.Add(fmt.Sprint(2+cd), stats.Ratio(icSp), stats.Ratio(cfdSp), winner)
	}
	fmt.Fprintln(w, t)
	_, err = fmt.Fprintln(w, "expected shape: if-conversion wins small CD regions (hammock class), CFD wins large ones (separable class) — the §II-B classification boundary")
	return err
}

// crossoverKernel mirrors the lcg kernel of the xform tests: predicate
// from a linear-congruential register, CD of parameterized size.
func crossoverKernel(n int64, cdFiller int) *xform.Kernel {
	cd := []isa.Inst{
		{Op: isa.SHRI, Rd: 9, Rs1: 7, Imm: 3},
		{Op: isa.ADD, Rd: 12, Rs1: 12, Rs2: 9},
	}
	for i := 0; i < cdFiller; i++ {
		switch i % 3 {
		case 0:
			cd = append(cd, isa.Inst{Op: isa.XOR, Rd: 10, Rs1: 12, Rs2: 9})
		case 1:
			cd = append(cd, isa.Inst{Op: isa.SHRI, Rd: 11, Rs1: 10, Imm: 2})
		case 2:
			cd = append(cd, isa.Inst{Op: isa.ADD, Rd: 12, Rs1: 12, Rs2: 11})
		}
	}
	return &xform.Kernel{
		Name: "crossover",
		Init: []isa.Inst{
			{Op: isa.ADDI, Rd: 7, Rs1: 0, Imm: 88172645463325252},
			{Op: isa.ADDI, Rd: 15, Rs1: 0, Imm: 6364136223846793},
			{Op: isa.ADDI, Rd: 4, Rs1: 0, Imm: n},
			{Op: isa.ADDI, Rd: 12, Rs1: 0, Imm: 0},
		},
		Slice: []isa.Inst{
			{Op: isa.MUL, Rd: 7, Rs1: 7, Rs2: 15},
			{Op: isa.ADDI, Rd: 7, Rs1: 7, Imm: 1442695040888963},
			{Op: isa.SHRI, Rd: 8, Rs1: 7, Imm: 63},
		},
		CD:      cd,
		Pred:    8,
		Counter: 4,
		Scratch: []isa.Reg{20, 21, 22, 23, 24, 25, 26},
		NoAlias: true,
		Note:    "crossover predicate",
	}
}
