package predictor

// ISLTAGE is an ISL-TAGE-class predictor (Seznec, CBP3): a TAGE predictor
// (bimodal base table plus tagged tables indexed with geometrically
// increasing global history lengths) augmented with a loop predictor and a
// small statistical corrector. It is the paper's baseline predictor (§VI).
//
// Speculative global history is updated at fetch with the outcome the
// front-end proceeds with, snapshot at branches/checkpoints, and restored on
// recovery. Tables are trained at retirement using the indices and tags
// captured at prediction time.
type ISLTAGE struct {
	// Base bimodal table.
	base     []int8
	baseMask uint32

	// Tagged tables.
	tables    [numTables][]tageEntry
	histLens  [numTables]uint32
	tableMask uint32
	tagMask   uint16

	// Speculative global history: a circular bit buffer plus folded
	// registers per table (index fold, two tag folds).
	hist     []uint8
	histMask uint32
	pos      uint32
	path     uint32
	foldIdx  [numTables]folded
	foldTag1 [numTables]folded
	foldTag2 [numTables]folded

	// Statistical corrector: bias table plus two history-indexed tables.
	scTables [3][]int8
	scMask   uint32
	scFold   [2]folded
	scLens   [2]uint32
	scThresh int32

	// Loop predictor.
	loop     []loopEntry
	loopMask uint32

	useAltOnNA int8
	tick       uint32
	rng        lfsr
}

type tageEntry struct {
	tag uint16
	ctr int8 // 3-bit signed: -4..3, taken when >= 0
	u   uint8
}

type loopEntry struct {
	tag         uint16
	trip        uint16 // iterations in body direction before the exit
	retiredIter uint16
	specIter    uint16
	conf        uint8
	dir         bool // body direction (the direction taken trip times)
	valid       bool
}

type folded struct {
	comp     uint32
	compLen  uint32
	origLen  uint32
	outPoint uint32
}

func newFolded(origLen, compLen uint32) folded {
	return folded{compLen: compLen, origLen: origLen, outPoint: origLen % compLen}
}

func (f *folded) update(newBit, oldBit uint32) {
	f.comp = f.comp<<1 | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= 1<<f.compLen - 1
}

const (
	tageLogBase  = 14 // 16K-entry bimodal base
	tageLogTable = 10 // 1K entries per tagged table
	tageTagBits  = 12
	tageHistBuf  = 4096 // must exceed max in-flight branches plus max history
	scLogTable   = 10
	loopLogTable = 7
	loopConfMax  = 7
)

// NewISLTAGE returns the default ISL-TAGE configuration (roughly the 64KB
// CBP3 budget class).
func NewISLTAGE() *ISLTAGE {
	p := &ISLTAGE{
		base:      make([]int8, 1<<tageLogBase),
		baseMask:  1<<tageLogBase - 1,
		tableMask: 1<<tageLogTable - 1,
		tagMask:   1<<tageTagBits - 1,
		hist:      make([]uint8, tageHistBuf),
		histMask:  tageHistBuf - 1,
		scMask:    1<<scLogTable - 1,
		scLens:    [2]uint32{16, 64},
		scThresh:  6,
		loop:      make([]loopEntry, 1<<loopLogTable),
		loopMask:  1<<loopLogTable - 1,
		rng:       lfsr(0x2545f491),
	}
	p.histLens = [numTables]uint32{4, 9, 19, 40, 80, 160, 320, 640}
	for i := 0; i < numTables; i++ {
		p.tables[i] = make([]tageEntry, 1<<tageLogTable)
		p.foldIdx[i] = newFolded(p.histLens[i], tageLogTable)
		p.foldTag1[i] = newFolded(p.histLens[i], tageTagBits)
		p.foldTag2[i] = newFolded(p.histLens[i], tageTagBits-1)
	}
	for i := range p.scTables {
		p.scTables[i] = make([]int8, 1<<scLogTable)
	}
	p.scFold[0] = newFolded(p.scLens[0], scLogTable)
	p.scFold[1] = newFolded(p.scLens[1], scLogTable)
	return p
}

// Name implements DirPredictor.
func (p *ISLTAGE) Name() string { return "isl-tage" }

func (p *ISLTAGE) index(pc uint64, t int) uint32 {
	return (uint32(pc) ^ uint32(pc>>2) ^ uint32(pc>>(5+t)) ^ p.foldIdx[t].comp ^ (p.path & (1<<min32(p.histLens[t], 16) - 1))) & p.tableMask
}

func (p *ISLTAGE) tag(pc uint64, t int) uint16 {
	return uint16(uint32(pc)^p.foldTag1[t].comp^(p.foldTag2[t].comp<<1)) & p.tagMask
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Lookup implements DirPredictor.
func (p *ISLTAGE) Lookup(pc uint64, l *Lookup) {
	*l = Lookup{provider: -1, altTable: -1}
	l.baseIdx = uint32(pc^pc>>2) & p.baseMask
	l.basePred = p.base[l.baseIdx] >= 0

	for t := 0; t < numTables; t++ {
		l.indices[t] = p.index(pc, t)
		l.tags[t] = p.tag(pc, t)
	}
	// Longest and second-longest matching tables.
	for t := numTables - 1; t >= 0; t-- {
		if p.tables[t][l.indices[t]].tag == l.tags[t] {
			if l.provider < 0 {
				l.provider = int8(t)
			} else {
				l.altTable = int8(t)
				break
			}
		}
	}

	l.altPred = l.basePred
	if l.altTable >= 0 {
		l.altPred = p.tables[l.altTable][l.indices[l.altTable]].ctr >= 0
	}
	if l.provider >= 0 {
		e := &p.tables[l.provider][l.indices[l.provider]]
		provPred := e.ctr >= 0
		l.weak = e.ctr == 0 || e.ctr == -1
		newEntry := l.weak && e.u == 0
		if newEntry && p.useAltOnNA >= 0 {
			l.usedAlt = true
			l.tagePred = l.altPred
		} else {
			l.tagePred = provPred
		}
	} else {
		l.usedAlt = true
		l.tagePred = l.basePred
	}
	l.Pred = l.tagePred

	// Statistical corrector: consulted when the provider is weak.
	l.scIdx[0] = uint32(pc) & p.scMask
	l.scIdx[1] = (uint32(pc) ^ p.scFold[0].comp) & p.scMask
	l.scIdx[2] = (uint32(pc>>2) ^ p.scFold[1].comp) & p.scMask
	var sum int32
	for i, idx := range l.scIdx {
		sum += 2*int32(p.scTables[i][idx]) + 1
	}
	if l.tagePred {
		l.scSum = sum
	} else {
		l.scSum = -sum
	}
	if l.weak || l.provider < 0 {
		if l.scSum < -p.scThresh {
			l.usedSC = true
			l.Pred = !l.tagePred
		}
	}

	// Loop predictor: overrides everything when confident.
	le := &p.loop[p.loopIndex(pc)]
	if le.valid && le.tag == p.loopTag(pc) {
		l.loopHit = true
		if le.conf >= 3 {
			l.loopValid = true
			// trip counts the body-direction instances per round, so
			// the exit is the fetch seeing specIter == trip.
			if le.specIter >= le.trip {
				l.loopPred = !le.dir // predict the exit
			} else {
				l.loopPred = le.dir
			}
			l.Pred = l.loopPred
		}
	}
}

func (p *ISLTAGE) loopIndex(pc uint64) uint32 { return uint32(pc>>2^pc) & p.loopMask }
func (p *ISLTAGE) loopTag(pc uint64) uint16   { return uint16(pc>>9) & 0x3fff }

// OnFetchOutcome implements DirPredictor: pushes the front-end outcome into
// the speculative history and advances the loop predictor's speculative
// iteration counter.
func (p *ISLTAGE) OnFetchOutcome(pc uint64, taken bool) {
	var bit uint8
	if taken {
		bit = 1
	}
	p.hist[p.pos&p.histMask] = bit
	for t := 0; t < numTables; t++ {
		old := uint32(p.hist[(p.pos-p.histLens[t])&p.histMask])
		p.foldIdx[t].update(uint32(bit), old)
		p.foldTag1[t].update(uint32(bit), old)
		p.foldTag2[t].update(uint32(bit), old)
	}
	for i := range p.scFold {
		old := uint32(p.hist[(p.pos-p.scLens[i])&p.histMask])
		p.scFold[i].update(uint32(bit), old)
	}
	p.pos++
	p.path = (p.path<<1 | uint32(pc)&1) & 0xffff

	le := &p.loop[p.loopIndex(pc)]
	if le.valid && le.tag == p.loopTag(pc) {
		if taken == le.dir {
			le.specIter++
		} else {
			le.specIter = 0
		}
	}
}

// Snapshot implements DirPredictor.
func (p *ISLTAGE) Snapshot(s *HistSnap) {
	s.pos, s.path = p.pos, p.path
	for t := 0; t < numTables; t++ {
		s.foldIdx[t] = p.foldIdx[t].comp
		s.foldTag1[t] = p.foldTag1[t].comp
		s.foldTag2[t] = p.foldTag2[t].comp
	}
	s.scFold[0] = p.scFold[0].comp
	s.scFold[1] = p.scFold[1].comp
}

// Restore implements DirPredictor.
func (p *ISLTAGE) Restore(s *HistSnap) {
	p.pos, p.path = s.pos, s.path
	for t := 0; t < numTables; t++ {
		p.foldIdx[t].comp = s.foldIdx[t]
		p.foldTag1[t].comp = s.foldTag1[t]
		p.foldTag2[t].comp = s.foldTag2[t]
	}
	p.scFold[0].comp = s.scFold[0]
	p.scFold[1].comp = s.scFold[1]
}

// OnSquash implements DirPredictor: resynchronizes the loop predictor's
// speculative iteration counters with retired state (they are too large to
// checkpoint per branch).
func (p *ISLTAGE) OnSquash() {
	for i := range p.loop {
		p.loop[i].specIter = p.loop[i].retiredIter
	}
}

// Train implements DirPredictor.
func (p *ISLTAGE) Train(pc uint64, l *Lookup, taken bool) {
	// Loop predictor update.
	p.trainLoop(pc, l, taken)

	// Statistical corrector update: train whenever it was consulted
	// territory (weak provider) or it flipped the prediction.
	if l.usedSC || ((l.weak || l.provider < 0) && (l.scSum >= -p.scThresh && l.scSum <= p.scThresh)) {
		for i, idx := range l.scIdx {
			want := taken
			c := p.scTables[i][idx]
			p.scTables[i][idx] = counterUpdate(c, want, 31)
		}
	}

	// use_alt_on_na bookkeeping: when the provider was a weak new entry
	// and provider and alt disagreed, learn which to trust.
	if l.provider >= 0 {
		e := &p.tables[l.provider][l.indices[l.provider]]
		provPred := e.ctr >= 0
		newEntry := (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if newEntry && provPred != l.altPred {
			if l.altPred == taken {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}
	}

	// Update provider (and sometimes alt/base) counters.
	if l.provider >= 0 {
		e := &p.tables[l.provider][l.indices[l.provider]]
		e.ctr = counterUpdate(e.ctr, taken, 3)
		if e.u == 0 {
			// Also train the alternate so it stays warm.
			if l.altTable >= 0 {
				a := &p.tables[l.altTable][l.indices[l.altTable]]
				a.ctr = counterUpdate(a.ctr, taken, 3)
			} else {
				p.base[l.baseIdx] = counterUpdate(p.base[l.baseIdx], taken, 1)
			}
		}
		// Usefulness: provider differed from alt and was right/wrong.
		provPred := e.ctr >= 0
		_ = provPred
		if l.tagePred != l.altPred {
			if l.tagePred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		p.base[l.baseIdx] = counterUpdate(p.base[l.baseIdx], taken, 1)
	}

	// Allocate on a TAGE misprediction (before loop/SC overrides).
	if l.tagePred != taken && l.provider < numTables-1 {
		p.allocate(l, taken)
	}

	// Periodic usefulness aging.
	p.tick++
	if p.tick&(1<<18-1) == 0 {
		for t := range p.tables {
			for i := range p.tables[t] {
				p.tables[t][i].u >>= 1
			}
		}
	}
}

func (p *ISLTAGE) allocate(l *Lookup, taken bool) {
	start := int(l.provider + 1)
	// Find candidate tables with u == 0; prefer a random one among the
	// shorter eligible histories (standard TAGE uses a skewed choice).
	// Only the first two candidates matter, so track them in scalars —
	// this runs on every TAGE misprediction and must not allocate.
	first, second := -1, -1
	for t := start; t < numTables; t++ {
		if p.tables[t][l.indices[t]].u == 0 {
			if first < 0 {
				first = t
			} else {
				second = t
				break
			}
		}
	}
	if first < 0 {
		for t := start; t < numTables; t++ {
			p.tables[t][l.indices[t]].u--
			if p.tables[t][l.indices[t]].u == 255 { // underflow guard
				p.tables[t][l.indices[t]].u = 0
			}
		}
		return
	}
	// Pick among up to the first two candidates, favoring the shorter.
	pick := first
	if second >= 0 && p.rng.next()&3 == 0 {
		pick = second
	}
	e := &p.tables[pick][l.indices[pick]]
	e.tag = l.tags[pick]
	e.u = 0
	if taken {
		e.ctr = 0
	} else {
		e.ctr = -1
	}
}

func (p *ISLTAGE) trainLoop(pc uint64, l *Lookup, taken bool) {
	le := &p.loop[p.loopIndex(pc)]
	tag := p.loopTag(pc)
	if le.valid && le.tag == tag {
		if l.loopValid {
			// Confidence tracking on used predictions.
			if l.loopPred == taken {
				if le.conf < loopConfMax {
					le.conf++
				}
			} else {
				// Wrong: retrain from scratch.
				le.valid = false
				le.conf = 0
				le.retiredIter = 0
				le.specIter = 0
				return
			}
		}
		if taken == le.dir {
			le.retiredIter++
			if le.retiredIter == 0 { // overflow: give up on this loop
				le.valid = false
			}
		} else {
			// Exit observed: does the trip count repeat?
			if le.retiredIter == le.trip {
				if le.conf < loopConfMax {
					le.conf++
				}
			} else {
				le.trip = le.retiredIter
				le.conf = 0
			}
			le.retiredIter = 0
			le.specIter = 0
		}
		return
	}
	// Allocate on a TAGE misprediction. For a loop branch the mispredict
	// is almost always the exit, so the body direction is the opposite
	// of the observed outcome; a mid-body mispredict allocates a useless
	// entry that retrains harmlessly.
	if l.tagePred != taken {
		*le = loopEntry{tag: tag, dir: !taken, valid: true}
	}
}
