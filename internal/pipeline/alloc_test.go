package pipeline

import (
	"runtime"
	"testing"
	"unsafe"

	"cfd/internal/mem"
)

// TestPipelineSteadyStateZeroAllocs is the hot-loop allocation ceiling:
// once warm, Cycle() must not allocate at all. Rename holds pregs in a
// fixed free list, the event wheel and the wakeup lists draw nodes from
// grow-only pools, the ROB ring builds uops in place — a regression in any
// of them shows up here as a fractional allocs-per-run.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(2000, 100, 17))
	c, err := New(testConfig(), cfdLoop(0x10000, 0x80000, 2000, 50), m)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: let every pool, ring, and event slot reach its steady size.
	for i := 0; i < 20000; i++ {
		if c.done {
			t.Fatal("workload finished during warm-up; enlarge it")
		}
		if err := c.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if c.done {
				t.Fatal("workload finished during measurement; enlarge it")
			}
			if err := c.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Errorf("steady-state Cycle() allocates: %g allocs per 100 cycles, want 0", got)
	}
}

// TestPipelineEventWheelZeroAllocs runs condLoop, whose mispredictions and
// cache misses pile completions unevenly into the event wheel's buckets,
// for three full turns of the ring, so every bucket is reused several
// times and a bucket that needs more room than the last turn gave it
// would allocate. The loop's input and output pages are touched in
// advance and a short warm-up creates its per-branch stats, so any
// allocation left is the pipeline's own.
func TestPipelineEventWheelZeroAllocs(t *testing.T) {
	const n = 60000
	const aBase, bBase = 0x100000, 0x800000
	m := mem.New()
	m.WriteUint64s(aBase, randomArray(n, 100, 23))
	m.WriteUint64s(bBase, make([]uint64, n))
	c, err := New(testConfig(), condLoop(aBase, bBase, n, 50), m)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(k int) {
		for i := 0; i < k; i++ {
			if c.done {
				t.Fatal("workload finished early; enlarge it")
			}
			if err := c.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(2000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle(3 * eventRing)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("%d cycles of condLoop allocate %d times, want 0", 3*eventRing, got)
	}
}

// TestUopSize guards the uop's size. Fetch builds one for every fetched
// instruction, right path and wrong path alike, so the host cost of a
// fetched uop grows with its size: keep predictor state and other
// branch-only data in side arrays, and the fields packed by size.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(uop{}); got > 240 {
		t.Errorf("uop is %d bytes, want at most 240", got)
	}
}
