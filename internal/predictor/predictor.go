// Package predictor implements branch direction predictors (bimodal,
// gshare, and an ISL-TAGE-class predictor: TAGE with a loop predictor and a
// statistical corrector), the branch target buffer, the return address
// stack, and a JRS confidence estimator used for confidence-guided
// checkpointing — the front-end prediction machinery of the paper's
// baseline core (§VI).
package predictor

// numTables is the number of tagged TAGE tables; it also bounds the history
// snapshot size for all predictors.
const numTables = 8

// Lookup carries one prediction plus the internal state needed to train the
// predictor at retirement. The pipeline keeps it in a per-window-slot side
// array, has Lookup fill it there, and hands it back to Train unchanged.
type Lookup struct {
	// Pred is the predicted direction.
	Pred bool

	// TAGE internals.
	provider int8 // providing tagged table, -1 when the base table provided
	altTable int8 // alternate provider, -1 when base
	altPred  bool
	usedAlt  bool
	weak     bool // provider counter was weak (new entry)
	indices  [numTables]uint32
	tags     [numTables]uint16
	baseIdx  uint32
	basePred bool
	tagePred bool // prediction before loop/SC override

	// Loop predictor.
	loopPred  bool
	loopValid bool // loop predictor is confident and overrode TAGE
	loopHit   bool // entry matched (confident or not)

	// Statistical corrector.
	scSum  int32
	scIdx  [3]uint32
	usedSC bool

	// gshare.
	ghist uint64
}

// HistSnap is a value snapshot of a predictor's speculative history,
// sufficient to roll back to a branch or checkpoint. One struct covers all
// predictor kinds; each kind writes and reads only the fields it uses.
type HistSnap struct {
	pos      uint32
	path     uint32
	foldIdx  [numTables]uint32
	foldTag1 [numTables]uint32
	foldTag2 [numTables]uint32
	scFold   [2]uint32
	ghist    uint64
}

// DirPredictor predicts conditional branch directions.
//
// Protocol: the fetch unit calls Lookup to predict, then OnFetchOutcome
// with the outcome it proceeds with (the prediction, or the queue-popped
// predicate for CFD branches — history must see those too so correlated
// branches can exploit them). Snapshot/Restore save and roll back the
// speculative history around checkpoints; OnSquash additionally resyncs
// speculative state that is too large to checkpoint (the loop predictor's
// iteration counters). Train is called in retirement order with the Lookup
// filled at fetch.
//
// Lookup, Snapshot, Restore and Train take pointers so the caller's storage
// is written and read in place: a Lookup or HistSnap is 100-odd bytes, and
// the pipeline makes these calls for every fetched branch. Lookup overwrites
// all of *l. Snapshot writes only the fields its own Restore reads, so a
// snapshot must be restored into the predictor that took it.
type DirPredictor interface {
	Name() string
	Lookup(pc uint64, l *Lookup)
	OnFetchOutcome(pc uint64, taken bool)
	Snapshot(s *HistSnap)
	Restore(s *HistSnap)
	OnSquash()
	Train(pc uint64, l *Lookup, taken bool)
}

// lfsr is a tiny deterministic pseudo-random source for TAGE allocation.
type lfsr uint32

func (r *lfsr) next() uint32 {
	v := uint32(*r)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*r = lfsr(v)
	return v
}

func counterUpdate(c int8, taken bool, max int8) int8 {
	if taken {
		if c < max {
			c++
		}
	} else {
		if c > -max-1 {
			c--
		}
	}
	return c
}
