package predictor

import "math/bits"

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
	h    tageHist
	geom [numTables]tageGeom

	// Fetched outcomes, one per byte, as a circular buffer: the folds
	// read the bit leaving each table's history window from here.
	hist [tageHistBuf]uint8

	useAltOnNA int8
	tick       uint32
	rng        lfsr

	// Loop predictor, plus the set of entries whose specIter may differ
	// from retiredIter: every entry outside it has them equal.
	loop      [1 << loopLogTable]loopEntry
	loopDirty [(1 << loopLogTable) / 64]uint64

	base     [1 << tageLogBase]int8
	tables   [numTables][1 << tageLogTable]tageEntry
	scTables [3][1 << scLogTable]int8 // statistical corrector: bias plus two history-indexed tables
}

// tageHist is the speculative history state that Snapshot saves and
// Restore rolls back.
//
// Each tagged table's three folds of the global history (Seznec's
// circular-shift registers) share one word, 16 bits apart: the index fold
// (tageLogTable bits) at bit 0, the first tag fold (tageTagBits) at bit 16
// and the second (tageTagBits-1) at bit 32. Every lane has at least four
// spare bits above it, so one shift, XOR and mask step all three lanes
// without a carry crossing from one into the next. The statistical
// corrector's two index folds share sc the same way, at bits 0 and scLane.
type tageHist struct {
	fold [numTables]uint64
	sc   uint64
	pos  uint32 // next slot of hist
	path uint32 // low PC bit of the last 16 fetched branches
}

// tageGeom is a tagged table's fixed history geometry.
type tageGeom struct {
	histLen  uint32
	pathMask uint32 // the path bits the index uses: min(histLen, 16)
	outMask  uint64 // per fold lane, the bit (histLen % lane width) that the outcome leaving the history is XORed into
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

const (
	tageLogBase  = 14 // 16K-entry bimodal base
	tageLogTable = 10 // 1K entries per tagged table
	tageTagBits  = 12
	tageHistBuf  = 4096 // must exceed max in-flight branches plus max history
	scLogTable   = 10
	scThresh     = 6
	loopLogTable = 7
	loopConfMax  = 7

	// Fold lanes of tageHist.fold: lane offsets, a 1 at the bottom of
	// each lane, and each lane's width mask.
	idxLane  = 0
	tag1Lane = 16
	tag2Lane = 32
	foldOnes = 1<<idxLane | 1<<tag1Lane | 1<<tag2Lane
	foldMask = (1<<tageLogTable-1)<<idxLane | (1<<tageTagBits-1)<<tag1Lane | (1<<(tageTagBits-1)-1)<<tag2Lane

	// The statistical corrector's folds: history lengths, and lanes at
	// bits 0 and scLane of tageHist.sc.
	scHist0 = 16
	scHist1 = 64
	scLane  = 16
	scOnes  = 1 | 1<<scLane
	scMask  = (1<<scLogTable - 1) * scOnes
)

// tageHistLens are the tagged tables' geometric history lengths.
var tageHistLens = [numTables]uint32{4, 9, 19, 40, 80, 160, 320, 640}

// NewISLTAGE returns the default ISL-TAGE configuration (roughly the 64KB
// CBP3 budget class).
func NewISLTAGE() *ISLTAGE {
	p := &ISLTAGE{rng: lfsr(0x2545f491)}
	for t, n := range tageHistLens {
		p.geom[t] = tageGeom{
			histLen:  n,
			pathMask: 1<<min(n, 16) - 1,
			outMask:  1<<(idxLane+n%tageLogTable) | 1<<(tag1Lane+n%tageTagBits) | 1<<(tag2Lane+n%(tageTagBits-1)),
		}
	}
	return p
}

// Name implements DirPredictor.
func (p *ISLTAGE) Name() string { return "isl-tage" }

// Lookup implements DirPredictor.
func (p *ISLTAGE) Lookup(pc uint64, l *Lookup) {
	*l = Lookup{provider: -1, altTable: -1}
	l.baseIdx = uint32(pc^pc>>2) & (1<<tageLogBase - 1)
	l.basePred = p.base[l.baseIdx] >= 0

	// Index and tag every table, walking down from the longest history:
	// the first tag match provides, the second is the alternate. Each
	// lane is read with a constant shift; the final masks drop the lanes
	// above it (the second tag fold enters shifted left by one).
	for t := numTables - 1; t >= 0; t-- {
		f := p.h.fold[t]
		idx := (uint32(pc) ^ uint32(pc>>2) ^ uint32(pc>>(5+t)) ^ uint32(f>>idxLane) ^ p.h.path&p.geom[t].pathMask) & (1<<tageLogTable - 1)
		tag := uint16(uint32(pc)^uint32(f>>tag1Lane)^uint32(f>>(tag2Lane-1))) & (1<<tageTagBits - 1)
		l.indices[t], l.tags[t] = idx, tag
		if p.tables[t][idx].tag == tag {
			if l.provider < 0 {
				l.provider = int8(t)
			} else if l.altTable < 0 {
				l.altTable = int8(t)
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
	l.scIdx[0] = uint32(pc) & (1<<scLogTable - 1)
	l.scIdx[1] = (uint32(pc) ^ uint32(p.h.sc)) & (1<<scLogTable - 1)
	l.scIdx[2] = (uint32(pc>>2) ^ uint32(p.h.sc>>scLane)) & (1<<scLogTable - 1)
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
		if l.scSum < -scThresh {
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

func (p *ISLTAGE) loopIndex(pc uint64) uint32 { return uint32(pc>>2^pc) & (1<<loopLogTable - 1) }
func (p *ISLTAGE) loopTag(pc uint64) uint16   { return uint16(pc>>9) & 0x3fff }

// markLoop adds loop entry i to the set OnSquash resyncs.
func (p *ISLTAGE) markLoop(i uint32) { p.loopDirty[i/64] |= 1 << (i % 64) }

// OnFetchOutcome implements DirPredictor: pushes the front-end outcome into
// the speculative history and advances the loop predictor's speculative
// iteration counter.
func (p *ISLTAGE) OnFetchOutcome(pc uint64, taken bool) {
	var bit uint8
	if taken {
		bit = 1
	}
	h := &p.h
	p.hist[h.pos%tageHistBuf] = bit
	// Per fold: shift the new bit in, XOR out the bit leaving the
	// history, and fold the bit shifted past the top back into bit 0.
	in := -uint64(bit)
	for t := range h.fold {
		out := -uint64(p.hist[(h.pos-p.geom[t].histLen)%tageHistBuf])
		f := h.fold[t]<<1 | in&foldOnes
		f ^= out & p.geom[t].outMask
		f ^= f>>tageLogTable&(1<<idxLane) | f>>tageTagBits&(1<<tag1Lane) | f>>(tageTagBits-1)&(1<<tag2Lane)
		h.fold[t] = f & foldMask
	}
	sc := h.sc<<1 | in&scOnes
	sc ^= uint64(p.hist[(h.pos-scHist0)%tageHistBuf])<<(scHist0%scLogTable) |
		uint64(p.hist[(h.pos-scHist1)%tageHistBuf])<<(scLane+scHist1%scLogTable)
	sc ^= sc >> scLogTable & scOnes
	h.sc = sc & scMask
	h.pos++
	h.path = (h.path<<1 | uint32(pc)&1) & 0xffff

	i := p.loopIndex(pc)
	le := &p.loop[i]
	if le.valid && le.tag == p.loopTag(pc) {
		if taken == le.dir {
			le.specIter++
		} else {
			le.specIter = 0
		}
		p.markLoop(i)
	}
}

// Snapshot implements DirPredictor.
func (p *ISLTAGE) Snapshot(s *HistSnap) { s.tage = p.h }

// Restore implements DirPredictor.
func (p *ISLTAGE) Restore(s *HistSnap) { p.h = s.tage }

// OnSquash implements DirPredictor: resynchronizes the loop predictor's
// speculative iteration counters with retired state (they are too large to
// checkpoint per branch). Only entries in the dirty set can differ.
func (p *ISLTAGE) OnSquash() {
	for w, m := range p.loopDirty {
		for ; m != 0; m &= m - 1 {
			le := &p.loop[w*64+bits.TrailingZeros64(m)]
			le.specIter = le.retiredIter
		}
		p.loopDirty[w] = 0
	}
}

// Train implements DirPredictor.
func (p *ISLTAGE) Train(pc uint64, l *Lookup, taken bool) {
	// Loop predictor update.
	p.trainLoop(pc, l, taken)

	// Statistical corrector update: train whenever it was consulted
	// territory (weak provider) or it flipped the prediction.
	if l.usedSC || ((l.weak || l.provider < 0) && (l.scSum >= -scThresh && l.scSum <= scThresh)) {
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

// trainLoop updates the loop predictor at retirement. Every write that can
// leave retiredIter != specIter marks the entry for OnSquash; the others
// zero both.
func (p *ISLTAGE) trainLoop(pc uint64, l *Lookup, taken bool) {
	i := p.loopIndex(pc)
	le := &p.loop[i]
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
			p.markLoop(i)
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
