package harness

import (
	"sync"
	"sync/atomic"
	"testing"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// TestBuildCacheSharesBuilds: specs that differ only in core fields the
// build does not read share one Build, built once even when they ask
// concurrently; a different queue capacity or input size is a different
// build; and a panicking builder runs once and fails every spec that
// shares its key.
func TestBuildCacheSharesBuilds(t *testing.T) {
	const name, crash = "countlike-test", "countcrashlike-test"
	var builds, crashes atomic.Int64
	for _, s := range []*workload.Spec{
		{
			Name: name, Variants: []workload.Variant{workload.Base}, DefaultN: 1024, TestN: 256,
			Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
				builds.Add(1)
				m := mem.New()
				m.Write(0x1000, 8, uint64(n))
				return prog.NewBuilder().Halt().MustBuild(), m, nil
			},
		},
		{
			Name: crash, Variants: []workload.Variant{workload.Base}, DefaultN: 1024, TestN: 256,
			Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
				crashes.Add(1)
				panic("deliberately corrupt builder")
			},
		},
	} {
		if err := workload.Register(s); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { workload.Deregister(s.Name) })
	}

	small := config.SandyBridge()
	small.BQSize = 64
	configs := []config.Core{config.SandyBridge(), config.Scaled(640), config.SandyBridge().WithDepth(20), small}
	c := newBuildCache()
	got := make([][2]*Build, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		for j, n := range []int64{256, 512} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := c.get(RunSpec{Workload: name, Variant: workload.Base, Config: cfg}, n)
				if err != nil {
					t.Error(err)
				}
				got[i][j] = b
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < 3; i++ {
		if got[i] != got[0] {
			t.Errorf("%s does not share the baseline's builds", configs[i].Name)
		}
	}
	if got[3][0] == got[0][0] {
		t.Error("a core with another BQ size shares the baseline's build")
	}
	if got[0][0] == got[0][1] {
		t.Error("two input sizes share one build")
	}
	if n := builds.Load(); n != 4 {
		t.Errorf("builder ran %d times for 4 distinct builds", n)
	}
	if v := got[0][1].img.Clone().Read(0x1000, 8); v != 512 {
		t.Errorf("cached image reads %d, want the build's own 512", v)
	}

	for _, cfg := range configs[:3] {
		_, err := c.get(RunSpec{Workload: crash, Variant: workload.Base, Config: cfg}, 256)
		if f, ok := fault.As(err); !ok || f.Kind != fault.RuntimePanic {
			t.Errorf("%s: err = %v, want a runtime-panic fault", cfg.Name, err)
		}
	}
	if n := crashes.Load(); n != 1 {
		t.Errorf("panicking builder ran %d times for one build key", n)
	}
}
