package predictor

// Bimodal is a classic table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	ctrs []int8
	mask uint32
}

// NewBimodal returns a bimodal predictor with 2^logSize counters.
func NewBimodal(logSize int) *Bimodal {
	return &Bimodal{ctrs: make([]int8, 1<<logSize), mask: 1<<logSize - 1}
}

// Name implements DirPredictor.
func (p *Bimodal) Name() string { return "bimodal" }

// Lookup implements DirPredictor.
func (p *Bimodal) Lookup(pc uint64, l *Lookup) {
	idx := uint32(pc) & p.mask
	*l = Lookup{Pred: p.ctrs[idx] >= 0, baseIdx: idx}
}

// OnFetchOutcome implements DirPredictor (bimodal keeps no history).
func (p *Bimodal) OnFetchOutcome(pc uint64, taken bool) {}

// Snapshot implements DirPredictor.
func (p *Bimodal) Snapshot(s *HistSnap) {}

// Restore implements DirPredictor.
func (p *Bimodal) Restore(s *HistSnap) {}

// OnSquash implements DirPredictor.
func (p *Bimodal) OnSquash() {}

// Train implements DirPredictor.
func (p *Bimodal) Train(pc uint64, l *Lookup, taken bool) {
	p.ctrs[l.baseIdx] = counterUpdate(p.ctrs[l.baseIdx], taken, 1)
}

// Gshare XORs a global history register with the PC to index 2-bit
// counters.
type Gshare struct {
	ctrs     []int8
	mask     uint32
	histBits uint
	hist     uint64
}

// NewGshare returns a gshare predictor with 2^logSize counters and
// histBits bits of global history.
func NewGshare(logSize int, histBits uint) *Gshare {
	return &Gshare{
		ctrs:     make([]int8, 1<<logSize),
		mask:     1<<logSize - 1,
		histBits: histBits,
	}
}

// Name implements DirPredictor.
func (p *Gshare) Name() string { return "gshare" }

func (p *Gshare) index(pc uint64, hist uint64) uint32 {
	return uint32(pc^(pc>>16)^hist) & p.mask
}

// Lookup implements DirPredictor.
func (p *Gshare) Lookup(pc uint64, l *Lookup) {
	idx := p.index(pc, p.hist)
	*l = Lookup{Pred: p.ctrs[idx] >= 0, baseIdx: idx, ghist: p.hist}
}

// OnFetchOutcome implements DirPredictor: speculative history update.
func (p *Gshare) OnFetchOutcome(pc uint64, taken bool) {
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
	p.hist &= 1<<p.histBits - 1
}

// Snapshot implements DirPredictor.
func (p *Gshare) Snapshot(s *HistSnap) { s.ghist = p.hist }

// Restore implements DirPredictor.
func (p *Gshare) Restore(s *HistSnap) { p.hist = s.ghist }

// OnSquash implements DirPredictor.
func (p *Gshare) OnSquash() {}

// Train implements DirPredictor. Training uses the history captured at
// lookup time, so wrong-path pollution of the speculative history does not
// corrupt table updates.
func (p *Gshare) Train(pc uint64, l *Lookup, taken bool) {
	p.ctrs[l.baseIdx] = counterUpdate(p.ctrs[l.baseIdx], taken, 1)
}

// Static always predicts one direction; useful for tests and as a
// degenerate baseline.
type Static struct{ Taken bool }

// Name implements DirPredictor.
func (p *Static) Name() string {
	if p.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Lookup implements DirPredictor.
func (p *Static) Lookup(pc uint64, l *Lookup) { *l = Lookup{Pred: p.Taken} }

// OnFetchOutcome implements DirPredictor.
func (p *Static) OnFetchOutcome(pc uint64, taken bool) {}

// Snapshot implements DirPredictor.
func (p *Static) Snapshot(s *HistSnap) {}

// Restore implements DirPredictor.
func (p *Static) Restore(s *HistSnap) {}

// OnSquash implements DirPredictor.
func (p *Static) OnSquash() {}

// Train implements DirPredictor.
func (p *Static) Train(pc uint64, l *Lookup, taken bool) {}
