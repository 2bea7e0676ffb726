// Package workload provides synthetic analogs of the paper's evaluated
// benchmarks. Each workload reproduces the control-flow idiom of one
// application the paper targets — the separable branch of soplex (Fig 8),
// astar's partially separable branch with nested conditions and an early
// exit (Fig 22), astar's separable loop-branch (Fig 14), and so on — with a
// deterministic data generator sized to exercise the same memory levels.
//
// Every workload builds multiple program variants (baseline, CFD, CFD+,
// DFD, TQ combinations) that perform identical architectural work: the
// final memory of every variant must match the baseline's, which the tests
// enforce through the functional emulator.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/xform"
)

// Variant names a program transformation of a workload.
type Variant string

// Variants.
const (
	Base    Variant = "base"    // unmodified loop
	CFD     Variant = "cfd"     // control-flow decoupling (BQ)
	CFDPlus Variant = "cfd+"    // CFD with the value queue (§IV-B)
	DFD     Variant = "dfd"     // data-flow decoupling: prefetch loop (§V)
	CFDDFD  Variant = "cfd+dfd" // both applied simultaneously (Fig 26)
	CFDTQ   Variant = "cfdtq"   // trip-count queue on the loop-branch (§IV-C)
	CFDBQ   Variant = "cfdbq"   // BQ on the inner branch only (Fig 28)
	CFDBQTQ Variant = "cfdbqtq" // BQ and TQ together (Fig 28)
	// IfConvert replaces the hammock's branch with a select (§II-B).
	IfConvert Variant = "ifconvert"
)

// Spec describes one workload.
type Spec struct {
	Name     string
	Analog   string // the paper benchmark this mirrors
	Function string // "function" name for the Table V/VI analog
	// TimePct is the fraction of whole-benchmark time spent in the
	// region (gprof column of Tables V/VI), used for Amdahl projections.
	TimePct int
	// Class is the dominant hard-branch class.
	Class prog.BranchClass
	// Variants lists the transformations this workload implements.
	Variants []Variant
	// DefaultN is the input size (elements) for full experiment runs;
	// TestN is a reduced size for unit tests.
	DefaultN int64
	TestN    int64
	// Build constructs the program and initial memory for a variant,
	// compiled for the paper's baseline core; BuildFor compiles for any
	// core. Kernel-shaped workloads leave it nil: registration synthesizes
	// it from Kernel through the xform pass pipeline, so every variant is
	// generated, not hand-written. Only workloads whose control flow is
	// not kernel-shaped (the classification-study set) provide Build.
	Build func(v Variant, n int64) (*prog.Program, *mem.Memory, error)
	// Kernel returns the workload's structured kernel form and initial
	// memory at size n. The variants are produced by applying the pass
	// pipeline's transforms to this single description.
	Kernel func(n int64) (xform.Form, *mem.Memory, error)
	// Xforms overrides the variant→transform mapping where the two names
	// differ (tifflike's "cfd" is the hoist schedule, §VII-A); absent
	// entries map the variant name to the transform of the same name.
	Xforms map[Variant]xform.Transform
	// Unlisted keeps the workload out of All, and so out of every
	// registry-wide set (the manifest's all, class and hasVariant
	// selectors, the classification study, cfdsim -list); ByName still
	// finds it. Workloads that only one ablation runs set it.
	Unlisted bool
}

// Transform returns the pass-pipeline transform that builds variant v.
func (s *Spec) Transform(v Variant) xform.Transform {
	if t, ok := s.Xforms[v]; ok {
		return t
	}
	return xform.Transform(v)
}

// BuildFor constructs the program and initial memory for variant v at size
// n, compiled for the core cfg. A kernel-shaped workload strip-mines its
// decoupled loops into chunks no larger than cfg's BQ/VQ/TQ capacities
// (§III-B), so the program is correct only on a core with those queues; a
// transform that cannot fit them refuses with its reason. A hand-built
// workload (Kernel == nil) has one program for every core.
func (s *Spec) BuildFor(cfg config.Core, v Variant, n int64) (*prog.Program, *mem.Memory, error) {
	if s.Kernel == nil {
		return s.Build(v, n)
	}
	if !s.HasVariant(v) {
		return nil, nil, badVariant(s.Name, v)
	}
	f, m, err := s.Kernel(n)
	if err != nil {
		return nil, nil, err
	}
	p, err := f.Apply(s.Transform(v), xform.ParamsFrom(cfg))
	if err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// buildFromKernel is the synthesized Build for kernel-shaped workloads: the
// program compiled for the paper's baseline core.
func (s *Spec) buildFromKernel(v Variant, n int64) (*prog.Program, *mem.Memory, error) {
	return s.BuildFor(config.SandyBridge(), v, n)
}

// HasVariant reports whether v is implemented.
func (s *Spec) HasVariant(v Variant) bool {
	for _, x := range s.Variants {
		if x == v {
			return true
		}
	}
	return false
}

// MustBuild is Build that panics on error (workloads are statically
// known-good).
func (s *Spec) MustBuild(v Variant, n int64) (*prog.Program, *mem.Memory) {
	p, m, err := s.Build(v, n)
	if err != nil {
		panic(fmt.Sprintf("workload %s/%s: %v", s.Name, v, err))
	}
	return p, m
}

var registry = map[string]*Spec{}

// Register adds a workload to the registry, rejecting malformed specs and
// duplicate names. The statically known workloads register through the
// init-time register wrapper; tests use Register and Deregister directly to
// install transient (including deliberately corrupt) workloads.
func Register(s *Spec) error {
	switch {
	case s == nil || s.Name == "":
		return fmt.Errorf("workload: register: spec has no name")
	case s.Build == nil && s.Kernel == nil:
		return fmt.Errorf("workload %s: register: nil Build function and no Kernel", s.Name)
	case len(s.Variants) == 0:
		return fmt.Errorf("workload %s: register: no variants", s.Name)
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("workload %s: register: duplicate name", s.Name)
	}
	if s.Build == nil {
		s.Build = s.buildFromKernel
	}
	registry[s.Name] = s
	return nil
}

// Deregister removes a workload installed by Register and reports whether
// the name was present.
func Deregister(name string) bool {
	_, ok := registry[name]
	delete(registry, name)
	return ok
}

// register is the init-time path for the built-in workloads: a registration
// error there is a programming bug in this package, so it panics.
func register(s *Spec) *Spec {
	if err := Register(s); err != nil {
		panic(err)
	}
	return s
}

// ByName returns a registered workload.
func ByName(name string) (*Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// All returns every registered workload that is not Unlisted, sorted by
// name.
func All() []*Spec {
	names := make([]string, 0, len(registry))
	for n, s := range registry {
		if !s.Unlisted {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Spec, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// CFDClass returns the workloads CFD applies to (the Fig 18/19 set).
func CFDClass() []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Class.Separable() {
			out = append(out, s)
		}
	}
	return out
}

// badVariant builds the standard error for an unimplemented variant.
func badVariant(name string, v Variant) error {
	return fmt.Errorf("workload %s: variant %q not implemented", name, v)
}

// rngFor returns the deterministic data generator for a workload.
func rngFor(name string) *rand.Rand {
	var seed int64
	for _, b := range name {
		seed = seed*131 + int64(b)
	}
	return rand.New(rand.NewSource(seed))
}

// Instruction-literal helpers for the kernel block descriptions. The kernel
// forms take raw straight-line []isa.Inst blocks (no labels or branches), so
// the builder is not involved; these keep the blocks as readable as
// assembler listings.

// li loads an immediate: rd = v.
func li(rd isa.Reg, v int64) isa.Inst { return isa.Inst{Op: isa.ADDI, Rd: rd, Imm: v} }

// ri is a register-immediate ALU op: rd = rs1 op imm.
func ri(op isa.Op, rd, rs1 isa.Reg, imm int64) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}
}

// rr is a register-register ALU op: rd = rs1 op rs2.
func rr(op isa.Op, rd, rs1, rs2 isa.Reg) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

// ld is a load: rd = mem[base+off].
func ld(op isa.Op, rd, base isa.Reg, off int64) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: off}
}

// st is a store: mem[base+off] = src.
func st(op isa.Op, src, base isa.Reg, off int64) isa.Inst {
	return isa.Inst{Op: op, Rs1: base, Rs2: src, Imm: off}
}

// SeparablePCs extracts the PCs of branches annotated separable — the set
// "perfected" in the Base+PerfectCFD configuration of Fig 19.
func SeparablePCs(p *prog.Program) []uint64 {
	var pcs []uint64
	for pc, note := range p.Notes {
		if note.Class.Separable() {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}
