package predictor

import (
	"sync"

	"cfd/internal/pool"
)

// BTB is a set-associative branch target buffer. Its role (paper §III-C4):
// detect control instructions and provide their taken-targets in the same
// cycle they are fetched. A taken branch that misses in the BTB costs a
// one-cycle misfetch penalty. BranchBQ/BranchTCR instructions are cached
// like every other branch so a queue-resolved taken pop pays no penalty on
// a BTB hit.
type BTB struct {
	entries []btbEntry  // set s holds entries[s*ways : (s+1)*ways]
	buf     *[]btbEntry // entries, from btbPool
	setMask uint64
	ways    int
	hits    uint64
	misses  uint64
	// clock is the per-instance LRU timestamp. It must not be shared
	// across BTBs: cores simulate concurrently in the parallel harness,
	// and only intra-core ordering matters for LRU.
	clock uint64
}

// btbEntry is one BTB way. tag holds pc+1 for a valid entry and 0 for an
// empty one, so a zeroed array is an empty BTB.
type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint64
}

// btbTag is the stored tag of pc: the whole pc, so pcs of a one-set BTB
// never alias, plus one, which keeps 0 free to mean empty.
func btbTag(pc uint64) uint64 { return pc + 1 }

// btbPool recycles the entries of released BTBs (see Release).
var btbPool sync.Pool

// NewBTB returns a BTB with 2^logSets sets of the given associativity. Its
// entries are taken zeroed from the pool a released BTB returns them to.
func NewBTB(logSets, ways int) *BTB {
	buf := pool.Zeroed[btbEntry](&btbPool, ways<<logSets)
	return &BTB{
		entries: *buf,
		buf:     buf,
		setMask: 1<<logSets - 1,
		ways:    ways,
	}
}

// Release returns the BTB's entries to the pool NewBTB takes them from. The
// BTB must not be used afterwards: its entries are gone, so a lookup
// panics.
func (b *BTB) Release() {
	if b.buf == nil {
		return
	}
	btbPool.Put(b.buf)
	b.buf, b.entries = nil, nil
}

// set returns the ways of pc's set.
func (b *BTB) set(pc uint64) []btbEntry {
	i := int(pc&b.setMask) * b.ways
	return b.entries[i : i+b.ways]
}

// Lookup returns the cached taken-target for pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	set := b.set(pc)
	tag := btbTag(pc)
	for i := range set {
		if set[i].tag == tag {
			b.clock++
			set[i].lru = b.clock
			b.hits++
			return set[i].target, true
		}
	}
	b.misses++
	return 0, false
}

// Insert records pc's taken-target, replacing the LRU way on conflict.
func (b *BTB) Insert(pc, target uint64) {
	set := b.set(pc)
	tag := btbTag(pc)
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			victim = i
			break
		}
		if set[i].tag == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	b.clock++
	set[victim] = btbEntry{tag: tag, target: target, lru: b.clock}
}

// Stats returns hit and miss counts.
func (b *BTB) Stats() (hits, misses uint64) { return b.hits, b.misses }

// RAS is a fixed-depth return address stack with simple overwrite-on-
// overflow semantics. The pipeline checkpoints the top-of-stack index at
// branches; full content corruption from deep wrong paths is accepted
// (standard simulator behavior).
type RAS struct {
	stack []uint64
	top   int // number of valid entries (logical; wraps physically)
}

// NewRAS returns a RAS with the given depth.
func NewRAS(depth int) *RAS { return &RAS{stack: make([]uint64, depth)} }

// Push records a return address (call).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top%len(r.stack)] = addr
	r.top++
}

// Pop predicts a return target.
func (r *RAS) Pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%len(r.stack)], true
}

// Top returns the logical top-of-stack index for checkpointing.
func (r *RAS) Top() int { return r.top }

// SetTop restores the logical top-of-stack index.
func (r *RAS) SetTop(t int) {
	if t < 0 {
		t = 0
	}
	r.top = t
}

// Confidence is a JRS-style branch confidence estimator: a table of
// miss-distance counters (resetting counters) indexed by PC and global
// history. The baseline uses it to decide which predicted branches deserve
// one of the scarce checkpoints (confidence-guided checkpointing, §VI).
type Confidence struct {
	ctrs   []uint8
	mask   uint32
	thresh uint8
	max    uint8
}

// NewConfidence returns an estimator with 2^logSize counters; a branch is
// low-confidence until its counter reaches thresh consecutive correct
// predictions.
func NewConfidence(logSize int, thresh uint8) *Confidence {
	return &Confidence{
		ctrs:   make([]uint8, 1<<logSize),
		mask:   1<<logSize - 1,
		thresh: thresh,
		max:    15,
	}
}

func (c *Confidence) index(pc uint64) uint32 {
	return (uint32(pc) ^ uint32(pc>>13)) & c.mask
}

// HighConfidence reports whether pc's prediction is trusted (no checkpoint
// needed).
func (c *Confidence) HighConfidence(pc uint64) bool {
	return c.ctrs[c.index(pc)] >= c.thresh
}

// Update trains the estimator with the resolved outcome of a prediction:
// correct predictions increment the resetting counter, mispredictions clear
// it.
func (c *Confidence) Update(pc uint64, correct bool) {
	i := c.index(pc)
	if correct {
		if c.ctrs[i] < c.max {
			c.ctrs[i]++
		}
	} else {
		c.ctrs[i] = 0
	}
}
