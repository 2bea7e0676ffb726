package pipeline

import (
	"runtime/debug"
	"testing"

	"cfd/internal/config"
	"cfd/internal/mem"
)

// newAllocCeiling is the measured allocation count of pipeline.New on the
// baseline core. Every cache level and the BTB are one flat array each, so
// the count does not grow with the number of sets; one allocation per set
// (3682 in all) would fail here.
const newAllocCeiling = 34

// newRecycledAllocCeiling is the allocation count of pipeline.New when a
// released core of the same shape left its arrays in the pools: the cache
// lines, the BTB entries, the wheel's buckets and the rob and bp rings,
// and each one's slice header, are reused instead of allocated.
const newRecycledAllocCeiling = 24

// allocsPerNew measures f's allocations with the collector off. A
// collection empties the pools, and the next Get then allocates the pool's
// per-processor array again, so with it on the count would depend on when
// the collector ran.
func allocsPerNew(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(20, f)
}

// TestPipelineNewAllocCeiling pins how many allocations building a core
// costs: a campaign builds one per spec.
func TestPipelineNewAllocCeiling(t *testing.T) {
	cfg := config.SandyBridge()
	p := cfdLoop(0x10000, 0x80000, 100, 50)
	m := mem.New()
	got := allocsPerNew(func() {
		if _, err := New(cfg, p, m); err != nil {
			t.Fatal(err)
		}
	})
	if got != newAllocCeiling {
		t.Errorf("pipeline.New allocates %g times, want %d", got, newAllocCeiling)
	}
}

// TestPipelineNewRecycledAllocCeiling pins the allocations of building a
// core after a core of the same shape was released, as a campaign's
// Runner does for every spec after the first.
func TestPipelineNewRecycledAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of puts under the race detector")
	}
	cfg := config.SandyBridge()
	p := cfdLoop(0x10000, 0x80000, 100, 50)
	m := mem.New()
	got := allocsPerNew(func() {
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
	})
	if got != newRecycledAllocCeiling {
		t.Errorf("pipeline.New on a released core's shape allocates %g times, want %d", got, newRecycledAllocCeiling)
	}
}
