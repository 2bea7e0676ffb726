package predictor

import (
	"math/rand"
	"testing"
)

// TestTAGEAllocatesOnMispredict: repeated mispredicts of a history-
// correlated branch must populate tagged entries (providers appear).
func TestTAGEAllocatesOnMispredict(t *testing.T) {
	p := NewISLTAGE()
	rng := rand.New(rand.NewSource(61))
	sawProvider := false
	last := false
	for i := 0; i < 5000; i++ {
		// Branch 0x80 repeats the previous outcome of branch 0x40.
		a := rng.Intn(2) == 0
		var l Lookup
		p.Lookup(0x40, &l)
		p.OnFetchOutcome(0x40, a)
		p.Train(0x40, &l, a)
		var l2 Lookup
		p.Lookup(0x80, &l2)
		if l2.provider >= 0 {
			sawProvider = true
		}
		p.OnFetchOutcome(0x80, last)
		p.Train(0x80, &l2, last)
		last = a
	}
	if !sawProvider {
		t.Error("no tagged-table provider ever matched: allocation broken")
	}
}

// TestTAGEPeriodicPatternLearned: a period-4 pattern (TTTN) needs only
// short history and must be near-perfect.
func TestTAGEPeriodicPatternLearned(t *testing.T) {
	p := NewISLTAGE()
	correct, total := 0, 0
	for i := 0; i < 8000; i++ {
		taken := i%4 != 3
		var l Lookup
		p.Lookup(0x200, &l)
		if i > 4000 {
			total++
			if l.Pred == taken {
				correct++
			}
		}
		p.OnFetchOutcome(0x200, taken)
		p.Train(0x200, &l, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.98 {
		t.Errorf("period-4 accuracy = %.3f, want >= 0.98", acc)
	}
}

// TestLoopPredictorVariableTripsStayLow: a loop whose trip count changes
// every round must never reach confident (wrong) predictions that tank
// accuracy below the TAGE fallback.
func TestLoopPredictorVariableTrips(t *testing.T) {
	p := NewISLTAGE()
	rng := rand.New(rand.NewSource(62))
	mis := 0
	total := 0
	bodyMis := 0
	for round := 0; round < 400; round++ {
		trips := 3 + rng.Intn(5)
		for j := 0; j < trips; j++ {
			var l Lookup
			p.Lookup(0x300, &l)
			total++
			if !l.Pred {
				bodyMis++ // predicted exit during the body
			}
			p.OnFetchOutcome(0x300, true)
			p.Train(0x300, &l, true)
		}
		var l Lookup
		p.Lookup(0x300, &l)
		total++
		if l.Pred {
			mis++ // missed the exit (expected: exits are random)
		}
		p.OnFetchOutcome(0x300, false)
		p.Train(0x300, &l, false)
	}
	// Exits are genuinely unpredictable, but the heavily-biased body
	// direction must stay well predicted: a confident-but-wrong loop
	// entry would blow body accuracy up.
	if float64(bodyMis) > 0.2*float64(total) {
		t.Errorf("body mispredicts %d of %d: loop predictor misfiring", bodyMis, total)
	}
	_ = mis
}

// TestHistSnapValueSemantics: snapshots are values; mutating the predictor
// after taking one must not alter it, and restoring from a copy rolls the
// history back to the original.
func TestHistSnapValueSemantics(t *testing.T) {
	p := NewISLTAGE()
	for i := 0; i < 100; i++ {
		p.OnFetchOutcome(uint64(i), i%3 == 0)
	}
	var s1 HistSnap
	p.Snapshot(&s1)
	s2 := s1 // copy
	p.OnFetchOutcome(4096, true)
	p.Restore(&s2)
	var after HistSnap
	p.Snapshot(&after)
	if after != s1 {
		t.Error("restored snapshot differs from the original")
	}
}

// TestBTBStats: hit/miss counters must track lookups.
func TestBTBStats(t *testing.T) {
	b := NewBTB(4, 2)
	b.Lookup(0x10)
	b.Insert(0x10, 0x99)
	b.Lookup(0x10)
	h, m := b.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1,1", h, m)
	}
}

// TestConfidenceSaturates: the resetting counter must not wrap.
func TestConfidenceSaturates(t *testing.T) {
	c := NewConfidence(8, 4)
	for i := 0; i < 1000; i++ {
		c.Update(0x8, true)
	}
	if !c.HighConfidence(0x8) {
		t.Error("saturated counter lost confidence")
	}
	c.Update(0x8, false)
	if c.HighConfidence(0x8) {
		t.Error("reset failed after saturation")
	}
}
