package faultinject

import (
	"fmt"
	"math/rand"

	"cfd/internal/core"
	"cfd/internal/emu"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// Victim programs. The live-state sites corrupt real workload variants
// (each chosen to exercise the targeted queue); the image sites use a
// dedicated context-switch program, since no workload context-switches.
var siteVictims = map[Site]string{
	SiteBQPred:     "soplexlike/cfd",
	SiteBQMark:     "astar1like/cfd",
	SiteVQValue:    "soplexlike/cfd+",
	SiteTQCount:    "astar2like/cfdtq",
	SiteTQOverflow: "astar2like/cfdtq",
	SiteTCR:        "astar2like/cfdtq",
	SiteImgBQ:      ctxVictimName,
	SiteImgVQ:      ctxVictimName,
	SiteImgTQ:      ctxVictimName,
}

const ctxVictimName = "ctxswitch"

// Context-switch victim layout: queue contents pushed before the save, and
// the image base addresses. The consumption phase pops everything back out
// (predicates steer an accumulator, VQ values are summed, trip counts drive
// BranchTCR loops), so every live image bit is architecturally meaningful.
const (
	imgBQAddr = 4096
	imgVQAddr = 8192
	imgTQAddr = 16384
)

var (
	ctxBQPreds  = []int64{1, 0, 1, 1, 0, 0, 1, 0, 1}
	ctxVQValues = []int64{0x1234, 0xfffe, 77, 31415, 0x55aa, 9}
	ctxTQCounts = []int64{3, 1, 5, 2}
)

func ctxProgram() (*prog.Program, error) {
	b := prog.NewBuilder()
	b.Li(1, imgBQAddr)
	b.Li(2, imgVQAddr)
	b.Li(3, imgTQAddr)
	for _, p := range ctxBQPreds {
		b.Li(6, p)
		b.PushBQ(6)
	}
	for _, v := range ctxVQValues {
		b.Li(6, v)
		b.PushVQ(6)
	}
	for _, c := range ctxTQCounts {
		b.Li(6, c)
		b.PushTQ(6)
	}
	b.SaveQueue(isa.SaveBQ, 1, 0)
	b.SaveQueue(isa.SaveVQ, 2, 0)
	b.SaveQueue(isa.SaveTQ, 3, 0)
	b.Nop() // the injection lands between a save and its restore
	b.SaveQueue(isa.RestoreBQ, 1, 0)
	b.SaveQueue(isa.RestoreVQ, 2, 0)
	b.SaveQueue(isa.RestoreTQ, 3, 0)
	for i := range ctxBQPreds {
		yes, done := fmt.Sprintf("yes%d", i), fmt.Sprintf("bq%d", i)
		b.BranchBQ(yes)
		b.Jump(done)
		b.Label(yes)
		b.I(isa.ADDI, 10, 10, int64(1)<<i)
		b.Label(done)
	}
	for range ctxVQValues {
		b.PopVQ(7)
		b.R(isa.ADD, 11, 11, 7)
	}
	for i := range ctxTQCounts {
		lbl := fmt.Sprintf("tq%d", i)
		b.PopTQ()
		b.Label(lbl)
		b.I(isa.ADDI, 12, 12, 1)
		b.BranchTCR(lbl)
	}
	b.Halt()
	return b.Build()
}

// goldenFor builds (or recalls) the golden run for a site's victim.
func goldenFor(site Site, goldens map[string]*golden) (*golden, error) {
	name := siteVictims[site]
	if g, ok := goldens[name]; ok {
		return g, nil
	}
	var (
		p   *prog.Program
		m   *mem.Memory
		err error
	)
	if name == ctxVictimName {
		p, err = ctxProgram()
	} else {
		wl, v := splitVictim(name)
		s, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		p, m, err = s.Build(v, s.TestN)
	}
	if err != nil {
		return nil, err
	}
	g, err := runGolden(name, p, m)
	if err != nil {
		return nil, err
	}
	goldens[name] = g
	return g, nil
}

func splitVictim(name string) (string, workload.Variant) {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i], workload.Variant(name[i+1:])
		}
	}
	return name, workload.Base
}

// pickEntry chooses an eligible entry uniformly and an injection step
// uniformly inside its live window [pushStep, end). end is the entry's
// consume step, or one past the final step for resident entries.
func pickEntry(rng *rand.Rand, ents []entryInfo, last int, eligible func(entryInfo) bool) (j, t int, ok bool) {
	var cands []int
	for i, e := range ents {
		end := e.endStep
		if e.fate == fateResident {
			end = last + 1
		}
		if end > e.pushStep && eligible(e) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	j = cands[rng.Intn(len(cands))]
	e := ents[j]
	end := e.endStep
	if e.fate == fateResident {
		end = last + 1
	}
	t = e.pushStep + rng.Intn(end-e.pushStep)
	return j, t, true
}

// runTrial executes one injection attempt for site.
func runTrial(site Site, rng *rand.Rand, goldens map[string]*golden) (Trial, error) {
	g, err := goldenFor(site, goldens)
	if err != nil {
		return Trial{}, err
	}
	tr := Trial{Site: site, Victim: g.name}
	step, detail, inject, ok := planInjection(site, rng, g)
	if !ok {
		tr.Outcome = OutcomeSkipped
		return tr, nil
	}
	tr.Step, tr.Detail = step, detail
	out := runVictim(g, step, inject)
	if !out.applied {
		tr.Outcome = OutcomeSkipped
		return tr, nil
	}
	switch {
	case out.err != nil:
		tr.Outcome = OutcomeDetected
		if f, isFault := fault.As(out.err); isFault {
			tr.Fault = f.Kind.String()
			if f.Kind == fault.WatchdogExpiry {
				tr.Detector = DetectWatchdog
			} else {
				tr.Detector = DetectFault
			}
		} else {
			tr.Detector = DetectFault
		}
	case out.divergeAt >= 0 || out.retired != len(g.steps):
		tr.Outcome = OutcomeDetected
		tr.Detector = DetectLockstep
	case out.endDiff:
		tr.Outcome = OutcomeDetected
		tr.Detector = DetectEndState
	default:
		tr.Outcome = OutcomeMissed
	}
	return tr, nil
}

// planInjection picks the injection step and builds the injector for one
// trial. ok is false when this draw found no eligible injection point.
func planInjection(site Site, rng *rand.Rand, g *golden) (step int, detail string, inject func(*emu.Machine) bool, ok bool) {
	last := g.lastStep()
	switch site {
	case SiteBQPred:
		j, t, found := pickEntry(rng, g.bqEnt, last, func(e entryInfo) bool {
			return e.fate != fateDiscarded
		})
		if !found {
			return 0, "", nil, false
		}
		pos := j - int(g.steps[t].bqPops)
		return t, fmt.Sprintf("flip BQ predicate, entry %d (position %d)", j, pos),
			func(m *emu.Machine) bool { return m.BQ.InjectFlipPred(pos) }, true

	case SiteVQValue:
		j, t, found := pickEntry(rng, g.vqEnt, last, func(e entryInfo) bool {
			return e.fate != fateDiscarded
		})
		if !found {
			return 0, "", nil, false
		}
		pos := j - int(g.steps[t].vqPops)
		bit := uint(rng.Intn(64))
		return t, fmt.Sprintf("flip VQ value bit %d, entry %d (position %d)", bit, j, pos),
			func(m *emu.Machine) bool { return m.VQ.InjectFlipBit(pos, bit) }, true

	case SiteTQCount:
		j, t, found := pickEntry(rng, g.tqEnt, last, func(e entryInfo) bool {
			return e.fate != fateDiscarded && e.val <= core.MaxTripCount
		})
		if !found {
			return 0, "", nil, false
		}
		pos := j - int(g.steps[t].tqPops)
		bit := uint(rng.Intn(core.TQWidth))
		return t, fmt.Sprintf("flip TQ count bit %d, entry %d (position %d)", bit, j, pos),
			func(m *emu.Machine) bool { return m.TQ.InjectFlipCountBit(pos, bit) }, true

	case SiteTQOverflow:
		// Setting the overflow bit on a zero-count entry consumed by
		// PopTQOV is architecturally invisible (both paths leave TCR 0
		// and take the overflow arm only in one of them — but with no
		// iterations either way a masked outcome is possible), so such
		// entries are excluded.
		j, t, found := pickEntry(rng, g.tqEnt, last, func(e entryInfo) bool {
			if e.fate == fateDiscarded {
				return false
			}
			overflowed := e.val > core.MaxTripCount
			return overflowed || e.fate == fateResident ||
				e.consumer == isa.PopTQ || e.val&core.MaxTripCount != 0
		})
		if !found {
			return 0, "", nil, false
		}
		pos := j - int(g.steps[t].tqPops)
		return t, fmt.Sprintf("flip TQ overflow bit, entry %d (position %d)", j, pos),
			func(m *emu.Machine) bool { return m.TQ.InjectFlipOverflow(pos) }, true

	case SiteBQMark:
		t, found := pickMarkStep(rng, g)
		if !found {
			return 0, "", nil, false
		}
		return t, "clear BQ mark state",
			func(m *emu.Machine) bool { return m.BQ.InjectClearMark() }, true

	case SiteTCR:
		t, found := pickTCRStep(rng, g)
		if !found {
			return 0, "", nil, false
		}
		bit := uint(rng.Intn(core.TQWidth))
		return t, fmt.Sprintf("flip TCR bit %d", bit),
			func(m *emu.Machine) bool { m.TCR ^= 1 << bit; return true }, true

	case SiteImgBQ, SiteImgVQ, SiteImgTQ:
		return planImageInjection(site, rng, g)
	}
	return 0, "", nil, false
}

// pickMarkStep chooses a step where the mark is set and the next ForwardBQ
// comes before the next MarkBQ — so clearing the mark guarantees the
// victim's Forward faults instead of being silently re-armed.
func pickMarkStep(rng *rand.Rand, g *golden) (int, bool) {
	firstMark := -1
	var cands []int
	nextFwd, nextMark := len(g.steps), len(g.steps)
	// Backward scan; a candidate step t needs mark-set-by-t (forward
	// condition checked against the suffix).
	eligible := make([]bool, len(g.steps))
	for t := len(g.steps) - 1; t >= 0; t-- {
		eligible[t] = nextFwd < nextMark
		switch g.steps[t].op {
		case isa.ForwardBQ:
			nextFwd = t
		case isa.MarkBQ:
			nextMark = t
		}
	}
	for t, rec := range g.steps {
		if rec.op == isa.MarkBQ && firstMark < 0 {
			firstMark = t
		}
		if firstMark >= 0 && t >= firstMark && eligible[t] {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// pickTCRStep chooses a step after which the next TCR-touching instruction
// is a BranchTCR (which consumes the corrupted value) or nothing at all
// (the final-state TCR comparison catches it). Steps whose corruption the
// next PopTQ/PopTQOV would silently overwrite are excluded.
func pickTCRStep(rng *rand.Rand, g *golden) (int, bool) {
	var cands []int
	next := isa.NOP // TCR-touching op following step t; NOP = none
	okAfter := make([]bool, len(g.steps))
	for t := len(g.steps) - 1; t >= 0; t-- {
		okAfter[t] = next == isa.NOP || next == isa.BranchTCR
		switch g.steps[t].op {
		case isa.PopTQ, isa.PopTQOV, isa.BranchTCR:
			next = g.steps[t].op
		}
	}
	for t := range g.steps {
		if okAfter[t] {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// planImageInjection flips one live bit of a saved queue image in memory,
// right after the corresponding Save executes and before its Restore.
// "Live" bits are the length field and the payload bits covering the saved
// entries; bits beyond the saved length are architecturally dead.
func planImageInjection(site Site, rng *rand.Rand, g *golden) (int, string, func(*emu.Machine) bool, bool) {
	type bitRef struct {
		byteOff int
		bit     uint
	}
	var (
		saveOp isa.Op
		base   uint64
		bits   []bitRef
	)
	switch site {
	case SiteImgBQ:
		saveOp, base = isa.SaveBQ, imgBQAddr
		for b := uint(0); b < 8; b++ {
			bits = append(bits, bitRef{0, b}) // length byte
		}
		for i := range ctxBQPreds {
			bits = append(bits, bitRef{1 + i/8, uint(i % 8)})
		}
	case SiteImgVQ:
		saveOp, base = isa.SaveVQ, imgVQAddr
		for b := uint(0); b < 8; b++ {
			bits = append(bits, bitRef{0, b})
		}
		for i := range ctxVQValues {
			for b := uint(0); b < 64; b++ {
				bits = append(bits, bitRef{1 + 8*i + int(b/8), b % 8})
			}
		}
	case SiteImgTQ:
		saveOp, base = isa.SaveTQ, imgTQAddr
		for b := uint(0); b < 16; b++ {
			bits = append(bits, bitRef{int(b / 8), b % 8}) // 2-byte length
		}
		for i := range ctxTQCounts {
			for b := uint(0); b < 32; b++ {
				bits = append(bits, bitRef{2 + 4*i + int(b/8), b % 8})
			}
		}
	default:
		return 0, "", nil, false
	}
	t, haveSave := g.saveStep[saveOp]
	if !haveSave {
		return 0, "", nil, false
	}
	ref := bits[rng.Intn(len(bits))]
	addr := base + uint64(ref.byteOff)
	detail := fmt.Sprintf("flip %s image bit %d of byte +%d", saveOp, ref.bit, ref.byteOff)
	return t, detail, func(m *emu.Machine) bool {
		v := m.Mem.Read(addr, 1)
		m.Mem.Write(addr, 1, v^(1<<ref.bit))
		return true
	}, true
}
