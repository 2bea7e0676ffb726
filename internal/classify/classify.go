// Package classify reproduces the paper's control-flow classification
// methodology (§II): every workload is run to completion on the functional
// emulator with an ISL-TAGE profiler attached (the paper's PIN tool with
// the CBP3 predictor), collecting per-static-branch misprediction counts.
// Branch classes come from the workloads' annotations — the analog of the
// paper's manual inspection — and the aggregation weighs each workload by
// its MPKI, i.e. by its average 1000-instruction interval (Fig 6).
package classify

import (
	"fmt"
	"sort"
	"strings"

	"cfd/internal/emu"
	"cfd/internal/predictor"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// BranchProfile is one static branch's profile.
type BranchProfile struct {
	PC          uint64
	Name        string
	Class       prog.BranchClass
	Execs       uint64
	Taken       uint64
	Mispredicts uint64
}

// MissRate returns the branch's misprediction rate.
func (b *BranchProfile) MissRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Execs)
}

// Report is one workload's profile.
type Report struct {
	Workload    string
	Suite       string
	Retired     uint64
	Branches    []BranchProfile // sorted by mispredictions, descending
	Mispredicts uint64
	CondExecs   uint64
}

// MPKI returns mispredictions per 1000 retired instructions.
func (r *Report) MPKI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Retired)
}

// MissRate returns the overall conditional-branch misprediction rate.
func (r *Report) MissRate() float64 {
	if r.CondExecs == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.CondExecs)
}

// Targeted reports whether the workload enters the targeted slice of the
// study (the paper excludes benchmarks with misprediction rates below 2%).
func (r *Report) Targeted() bool { return r.MissRate() >= 0.02 }

// ClassMPKI returns this workload's MPKI contribution per branch class.
func (r *Report) ClassMPKI() map[prog.BranchClass]float64 {
	out := make(map[prog.BranchClass]float64)
	if r.Retired == 0 {
		return out
	}
	for _, b := range r.Branches {
		out[b.Class] += 1000 * float64(b.Mispredicts) / float64(r.Retired)
	}
	return out
}

// Profile runs one workload's baseline on the emulator under the profiling
// predictor for n work items.
func Profile(s *workload.Spec, n int64) (*Report, error) {
	p, m, err := s.Build(workload.Base, n)
	if err != nil {
		return nil, err
	}
	pred := predictor.NewISLTAGE()
	var l predictor.Lookup
	perPC := make(map[uint64]*BranchProfile)
	tracer := emu.TracerFunc(func(ev emu.Event) {
		if !ev.Inst.Op.IsCondBranch() {
			return
		}
		pred.Lookup(ev.PC, &l)
		pred.OnFetchOutcome(ev.PC, ev.Taken)
		pred.Train(ev.PC, &l, ev.Taken)
		bp := perPC[ev.PC]
		if bp == nil {
			bp = &BranchProfile{PC: ev.PC, Class: prog.NotAnalyzed}
			if note, ok := p.Notes[ev.PC]; ok {
				bp.Name, bp.Class = note.Name, note.Class
			}
			perPC[ev.PC] = bp
		}
		bp.Execs++
		if ev.Taken {
			bp.Taken++
		}
		if l.Pred != ev.Taken {
			bp.Mispredicts++
		}
	})
	mc := emu.New(p, m, emu.WithTracer(tracer))
	if err := mc.Run(500_000_000); err != nil {
		return nil, fmt.Errorf("classify %s: %w", s.Name, err)
	}
	r := &Report{
		Workload: s.Name,
		Suite:    suiteOf(s.Analog),
		Retired:  mc.Retired,
	}
	for _, bp := range perPC {
		r.Branches = append(r.Branches, *bp)
		r.Mispredicts += bp.Mispredicts
		r.CondExecs += bp.Execs
	}
	sort.Slice(r.Branches, func(i, j int) bool {
		return r.Branches[i].Mispredicts > r.Branches[j].Mispredicts
	})
	return r, nil
}

func suiteOf(analog string) string {
	switch {
	case strings.Contains(analog, "SPEC2006"):
		return "SPEC2006"
	case strings.Contains(analog, "NU-MineBench"):
		return "NU-MineBench"
	case strings.Contains(analog, "BioBench"):
		return "BioBench"
	case strings.Contains(analog, "cBench"):
		return "cBench"
	default:
		return "other"
	}
}

// Study aggregates reports MPKI-weighted, like the paper's pie charts.
type Study struct {
	Reports []*Report
}

// Run profiles every registered workload at the given scale factor
// (fraction of each workload's DefaultN; 0 < scale <= 1).
func Run(scale float64) (*Study, error) {
	st := &Study{}
	for _, s := range workload.All() {
		n := int64(float64(s.DefaultN) * scale)
		if n < 64 {
			n = 64
		}
		r, err := Profile(s, n)
		if err != nil {
			return nil, err
		}
		st.Reports = append(st.Reports, r)
	}
	return st, nil
}

// SuiteShares returns each suite's share of cumulative MPKI (Fig 6a).
func (st *Study) SuiteShares() map[string]float64 {
	total := 0.0
	per := make(map[string]float64)
	for _, r := range st.Reports {
		per[r.Suite] += r.MPKI()
		total += r.MPKI()
	}
	for k := range per {
		per[k] /= total
	}
	return per
}

// TargetedShare returns the fraction of cumulative MPKI in the targeted
// slice (Fig 6b; the paper reports ~78%).
func (st *Study) TargetedShare() float64 {
	var targeted, total float64
	for _, r := range st.Reports {
		total += r.MPKI()
		if r.Targeted() {
			targeted += r.MPKI()
		}
	}
	if total == 0 {
		return 0
	}
	return targeted / total
}

// ClassShares breaks targeted MPKI down by branch class (Fig 6c). The
// paper reports ~41% separable (CFD), ~27% hammock (if-conversion), plus
// inseparable and not-analyzed slices.
func (st *Study) ClassShares() map[prog.BranchClass]float64 {
	per := make(map[prog.BranchClass]float64)
	total := 0.0
	for _, r := range st.Reports {
		if !r.Targeted() {
			continue
		}
		for cls, mpki := range r.ClassMPKI() {
			per[cls] += mpki
			total += mpki
		}
	}
	for k := range per {
		per[k] /= total
	}
	return per
}

// SeparableShare returns the share of targeted MPKI CFD can remove
// (separable classes combined).
func (st *Study) SeparableShare() float64 {
	var sep float64
	for cls, share := range st.ClassShares() {
		if cls.Separable() {
			sep += share
		}
	}
	return sep
}

// TopBranch returns the workload's heaviest mispredicting static branch.
func (r *Report) TopBranch() *BranchProfile {
	if len(r.Branches) == 0 {
		return nil
	}
	return &r.Branches[0]
}
