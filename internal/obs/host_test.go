package obs

import (
	"testing"
	"time"
)

// TestHostSampler pins the sampler contract: an immediate first sample,
// a live last sample with its count, notify called off the sampler
// goroutine, and an idempotent Stop.
func TestHostSampler(t *testing.T) {
	notified := make(chan HostStats, 64)
	h := StartHostSampler(10*time.Millisecond, func(s HostStats) {
		select {
		case notified <- s:
		default:
		}
	})
	if _, n := h.Last(); n == 0 {
		t.Fatal("no immediate first sample")
	}
	deadline := time.After(2 * time.Second)
	for {
		if _, n := h.Last(); n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler never ticked")
		case <-time.After(5 * time.Millisecond):
		}
	}
	h.Stop()
	h.Stop() // idempotent

	last, n := h.Last()
	if n < 3 {
		t.Errorf("sample count %d after three ticks", n)
	}
	if last.HeapAllocBytes == 0 || last.TotalAllocBytes == 0 || last.Goroutines == 0 {
		t.Errorf("last sample is empty: %+v", last)
	}
	if last.AllocRate < 0 {
		t.Errorf("last sample's allocation rate %v is negative", last.AllocRate)
	}
	select {
	case s := <-notified:
		if s.HeapAllocBytes == 0 || s.Goroutines == 0 {
			t.Errorf("notify got empty sample: %+v", s)
		}
	default:
		t.Error("notify never called")
	}
	// Stopped means stopped: the last sample no longer moves.
	time.Sleep(30 * time.Millisecond)
	if _, again := h.Last(); again != n {
		t.Errorf("sampler took %d samples after Stop", again-n)
	}

	// Nil sampler: every method is a safe no-op.
	var nilH *HostSampler
	nilH.Stop()
	if _, n := nilH.Last(); n != 0 {
		t.Error("nil sampler has samples")
	}
}

// TestReadHostStats pins the snapshot itself (RSS is best-effort, the
// rest must be live).
func TestReadHostStats(t *testing.T) {
	s := ReadHostStats()
	if s.HeapAllocBytes == 0 || s.TotalAllocBytes == 0 || s.Goroutines == 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}
