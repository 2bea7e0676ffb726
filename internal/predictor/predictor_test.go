package predictor

import (
	"math/rand"
	"testing"
)

// drive runs a (pc, taken) trace through a predictor in functional-profiling
// mode (outcome resolved immediately) and returns accuracy over the second
// half of the trace.
func drive(p DirPredictor, trace []struct {
	pc    uint64
	taken bool
}) float64 {
	correct, total := 0, 0
	for i, ev := range trace {
		var l Lookup
		p.Lookup(ev.pc, &l)
		if i >= len(trace)/2 {
			total++
			if l.Pred == ev.taken {
				correct++
			}
		}
		p.OnFetchOutcome(ev.pc, ev.taken)
		p.Train(ev.pc, &l, ev.taken)
	}
	return float64(correct) / float64(total)
}

type traceEv = struct {
	pc    uint64
	taken bool
}

func biasedTrace(pc uint64, n int, pTaken float64, seed int64) []traceEv {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]traceEv, n)
	for i := range tr {
		tr[i] = traceEv{pc, rng.Float64() < pTaken}
	}
	return tr
}

func TestBimodalLearnsBias(t *testing.T) {
	acc := drive(NewBimodal(12), biasedTrace(0x400, 4000, 0.95, 1))
	if acc < 0.90 {
		t.Errorf("bimodal accuracy on 95%%-biased branch = %.3f, want >= 0.90", acc)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	tr := make([]traceEv, 4000)
	for i := range tr {
		tr[i] = traceEv{0x400, i%2 == 0}
	}
	acc := drive(NewGshare(14, 16), tr)
	if acc < 0.99 {
		t.Errorf("gshare accuracy on alternating branch = %.3f, want >= 0.99", acc)
	}
}

func TestTAGELearnsHistoryPattern(t *testing.T) {
	// A branch correlated with the previous two outcomes of another
	// branch: needs global history.
	rng := rand.New(rand.NewSource(2))
	var tr []traceEv
	h1, h2 := false, false
	for i := 0; i < 8000; i++ {
		a := rng.Intn(2) == 0
		tr = append(tr, traceEv{0x100, a})
		tr = append(tr, traceEv{0x200, h1 != h2}) // xor of last two outcomes of 0x100
		h2, h1 = h1, a
	}
	p := NewISLTAGE()
	correct, total := 0, 0
	for i, ev := range tr {
		var l Lookup
		p.Lookup(ev.pc, &l)
		if ev.pc == 0x200 && i >= len(tr)/2 {
			total++
			if l.Pred == ev.taken {
				correct++
			}
		}
		p.OnFetchOutcome(ev.pc, ev.taken)
		p.Train(ev.pc, &l, ev.taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("TAGE accuracy on history-correlated branch = %.3f, want >= 0.95", acc)
	}
	// A bimodal predictor cannot learn this (xor of two random bits is
	// itself ~50/50).
	accB := drive(NewBimodal(12), tr)
	_ = accB // sanity only; the xor branch alone would be ~0.5
}

func TestTAGERandomBranchNearChance(t *testing.T) {
	acc := drive(NewISLTAGE(), biasedTrace(0x300, 20000, 0.5, 3))
	if acc > 0.60 {
		t.Errorf("TAGE accuracy on random branch = %.3f; data-dependent random branches must stay hard", acc)
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	// A loop back-edge taken 127 times then not taken, repeatedly: the
	// strip-mined CFD chunk loops look exactly like this. ISL-TAGE's loop
	// predictor should get the exits right after warmup.
	var tr []traceEv
	for rep := 0; rep < 120; rep++ {
		for i := 0; i < 127; i++ {
			tr = append(tr, traceEv{0x500, true})
		}
		tr = append(tr, traceEv{0x500, false})
	}
	acc := drive(NewISLTAGE(), tr)
	if acc < 0.995 {
		t.Errorf("ISL-TAGE accuracy on fixed-trip loop = %.4f, want >= 0.995", acc)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewISLTAGE()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		pc := uint64(rng.Intn(64)) * 4
		var l Lookup
		p.Lookup(pc, &l)
		p.OnFetchOutcome(pc, rng.Intn(2) == 0)
	}
	var snap HistSnap
	p.Snapshot(&snap)
	var before Lookup
	p.Lookup(0x123, &before)
	// Pollute history down a "wrong path", then restore.
	for i := 0; i < 100; i++ {
		p.OnFetchOutcome(uint64(i)*8, i%3 == 0)
	}
	p.Restore(&snap)
	var after Lookup
	p.Lookup(0x123, &after)
	if before != after {
		t.Error("Lookup differs after Snapshot/Restore round trip")
	}
}

func TestGshareSnapshotRestore(t *testing.T) {
	p := NewGshare(12, 12)
	p.OnFetchOutcome(4, true)
	p.OnFetchOutcome(8, false)
	var s HistSnap
	p.Snapshot(&s)
	var before Lookup
	p.Lookup(0x40, &before)
	p.OnFetchOutcome(12, true)
	p.Restore(&s)
	var after Lookup
	p.Lookup(0x40, &after)
	if after != before {
		t.Error("gshare restore did not recover history")
	}
}

func TestOnSquashResyncsLoopPredictor(t *testing.T) {
	p := NewISLTAGE()
	// Train a loop entry.
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 10; i++ {
			var l Lookup
			p.Lookup(0x700, &l)
			p.OnFetchOutcome(0x700, true)
			p.Train(0x700, &l, true)
		}
		var l Lookup
		p.Lookup(0x700, &l)
		p.OnFetchOutcome(0x700, false)
		p.Train(0x700, &l, false)
	}
	// Speculatively fetch a few iterations that will squash.
	for i := 0; i < 5; i++ {
		var l Lookup
		p.Lookup(0x700, &l)
		p.OnFetchOutcome(0x700, true)
	}
	p.OnSquash()
	le := &p.loop[p.loopIndex(0x700)]
	if le.specIter != le.retiredIter {
		t.Errorf("specIter %d != retiredIter %d after OnSquash", le.specIter, le.retiredIter)
	}
}

func TestBTBInsertLookupAndLRU(t *testing.T) {
	b := NewBTB(2, 2) // 4 sets × 2 ways
	b.Insert(0x10, 0x100)
	if tgt, hit := b.Lookup(0x10); !hit || tgt != 0x100 {
		t.Fatalf("lookup = %#x,%v", tgt, hit)
	}
	// Two more entries mapping to the same set (0x10, 0x14, 0x18 all have
	// pc & 3 == 0). Refresh 0x10 so 0x14 becomes the LRU victim.
	b.Insert(0x14, 0x200)
	b.Lookup(0x10)
	b.Insert(0x18, 0x300)
	if _, hit := b.Lookup(0x14); hit {
		t.Error("LRU eviction kept the wrong way")
	}
	if _, hit := b.Lookup(0x10); !hit {
		t.Error("recently used entry evicted")
	}
	hits, misses := b.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("stats: hits=%d misses=%d", hits, misses)
	}
}

func TestBTBUpdateExistingEntry(t *testing.T) {
	b := NewBTB(4, 2)
	b.Insert(0x20, 0x111)
	b.Insert(0x20, 0x222)
	if tgt, hit := b.Lookup(0x20); !hit || tgt != 0x222 {
		t.Errorf("updated target = %#x,%v, want 0x222", tgt, hit)
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("pop of empty RAS succeeded")
	}
	r.Push(10)
	r.Push(20)
	top := r.Top()
	r.Push(30)
	if v, ok := r.Pop(); !ok || v != 30 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	r.SetTop(top)
	if v, ok := r.Pop(); !ok || v != 20 {
		t.Errorf("pop after SetTop = %d,%v, want 20", v, ok)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
}

func TestConfidenceEstimator(t *testing.T) {
	c := NewConfidence(10, 4)
	pc := uint64(0x40)
	if c.HighConfidence(pc) {
		t.Error("fresh counter must be low confidence")
	}
	for i := 0; i < 4; i++ {
		c.Update(pc, true)
	}
	if !c.HighConfidence(pc) {
		t.Error("counter at threshold must be high confidence")
	}
	c.Update(pc, false)
	if c.HighConfidence(pc) {
		t.Error("misprediction must reset confidence")
	}
}

func TestStaticPredictor(t *testing.T) {
	p := &Static{Taken: true}
	var l Lookup
	if p.Lookup(0, &l); !l.Pred {
		t.Error("always-taken predicted not-taken")
	}
	if (&Static{}).Name() != "always-not-taken" {
		t.Error("bad name")
	}
}

func TestFoldedHistoryCancellation(t *testing.T) {
	// Property: the folded register is a GF(2)-linear function of exactly
	// the last origLen bits — bits older than origLen cancel out. So
	// after pushing origLen zero bits, the register must be zero no
	// matter what preceded them; and it must always fit in compLen bits.
	const origLen, compLen = 19, 10
	f := newFolded(origLen, compLen)
	rng := rand.New(rand.NewSource(9))
	var bits []uint32
	push := func(b uint32) {
		var old uint32
		if len(bits) >= origLen {
			old = bits[len(bits)-origLen]
		}
		f.update(b, old)
		bits = append(bits, b)
		if f.comp >= 1<<compLen {
			t.Fatalf("folded register overflowed: %#x", f.comp)
		}
	}
	for i := 0; i < 500; i++ {
		push(uint32(rng.Intn(2)))
	}
	for i := 0; i < origLen; i++ {
		push(0)
	}
	if f.comp != 0 {
		t.Errorf("fold of all-zero window = %#x, want 0 (old bits must cancel)", f.comp)
	}
}
