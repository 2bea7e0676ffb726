package harness

import (
	"fmt"
	"io"
	"math/rand"

	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/stats"
	"cfd/internal/workload"
	"cfd/internal/xform"
)

// runXformAblation compares the automatic CFD transformation (the paper's
// compiler-pass analog, §III-B) against doing nothing, on an
// xform-structured soplex-style kernel: the pass must deliver CFD's
// misprediction elimination automatically.
func runXformAblation(r *Runner, w io.Writer) error {
	n := int64(20000 * r.Scale * 4)
	if n < 1024 {
		n = 1024
	}
	k := &xform.Kernel{
		Name: "auto-soplex",
		Init: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: 0x100000},
			{Op: isa.ADDI, Rd: 2, Rs1: 0, Imm: 0x800000},
			{Op: isa.ADDI, Rd: 3, Rs1: 0, Imm: 500},
			{Op: isa.ADDI, Rd: 4, Rs1: 0, Imm: n},
			{Op: isa.ADDI, Rd: 12, Rs1: 0, Imm: 0},
		},
		Slice: []isa.Inst{
			{Op: isa.LD, Rd: 7, Rs1: 1, Imm: 0},
			{Op: isa.SLT, Rd: 8, Rs1: 3, Rs2: 7},
		},
		CD: []isa.Inst{
			{Op: isa.SHLI, Rd: 9, Rs1: 7, Imm: 1},
			{Op: isa.ADDI, Rd: 9, Rs1: 9, Imm: 17},
			{Op: isa.SD, Rs1: 2, Rs2: 9, Imm: 0},
			{Op: isa.ADD, Rd: 12, Rs1: 12, Rs2: 9},
			{Op: isa.XOR, Rd: 10, Rs1: 12, Rs2: 7},
			{Op: isa.SHRI, Rd: 11, Rs1: 10, Imm: 2},
			{Op: isa.ADD, Rd: 12, Rs1: 12, Rs2: 11},
		},
		Step: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 8},
			{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 8},
		},
		Pred:    8,
		Counter: 4,
		Scratch: []isa.Reg{20, 21, 22, 23},
		NoAlias: true,
		Note:    "auto: test[i] > theeps",
	}
	cfg := config.SandyBridge()
	params := xform.ParamsFrom(cfg)
	cls, err := k.Classify()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pass classification: %s\n", cls)
	comm := 0
	if p, err := k.CFD(params, false); err == nil {
		for _, in := range p.Insts {
			if in.Op == isa.PushBQ {
				comm++
			}
		}
	}

	rng := rand.New(rand.NewSource(77))
	img := mem.New()
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(1000))
	}
	img.WriteUint64s(0x100000, vals)

	t := stats.NewTable("Automatic transformation on the cycle-level core",
		"scheme", "cycles", "IPC", "MPKI", "speedup")
	steps := []struct {
		name  string
		build func() (*prog.Program, error)
	}{
		{"base", k.Base},
		{"auto-cfd", func() (*prog.Program, error) { return k.CFD(params, false) }},
		{"auto-cfd+", func() (*prog.Program, error) { return k.CFD(params, true) }},
		{"auto-dfd", func() (*prog.Program, error) { return k.DFD(params) }},
	}
	runs := make([]ownRun, len(steps))
	for i, s := range steps {
		p, err := s.build()
		if err != nil {
			return err
		}
		runs[i] = ownRun{RunSpec{Workload: k.Name, Variant: workload.Variant(s.name), Config: cfg}, newBuild(p, img)}
	}
	// All four schemes simulate concurrently; rows are assembled in the
	// fixed step order with the base row's cycles as the speedup anchor.
	results, err := r.runOwn(runs)
	if err != nil {
		return err
	}
	baseCycles := results[0].Stats.Cycles
	for i, s := range steps {
		st := results[i].Stats
		t.Addf(s.name, st.Cycles, st.IPC(), st.MPKI(),
			stats.Ratio(float64(baseCycles)/float64(st.Cycles)))
	}
	fmt.Fprintln(w, t)
	_, err = fmt.Fprintln(w, "expected shape: automatic CFD matches manual CFD's behavior on totally separable branches (paper §III-B)")
	return err
}
