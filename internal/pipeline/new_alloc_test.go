package pipeline

import (
	"testing"

	"cfd/internal/config"
	"cfd/internal/mem"
)

// newAllocCeiling is the measured allocation count of pipeline.New on the
// baseline core. Every cache level and the BTB are one flat array each, so
// the count does not grow with the number of sets; one allocation per set
// (3682 in all) would fail here.
const newAllocCeiling = 34

// TestPipelineNewAllocCeiling pins how many allocations building a core
// costs: a campaign builds one per spec.
func TestPipelineNewAllocCeiling(t *testing.T) {
	cfg := config.SandyBridge()
	p := cfdLoop(0x10000, 0x80000, 100, 50)
	m := mem.New()
	got := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg, p, m); err != nil {
			t.Fatal(err)
		}
	})
	if got != newAllocCeiling {
		t.Errorf("pipeline.New allocates %g times, want %d", got, newAllocCeiling)
	}
}
