package harness

import (
	"fmt"
	"runtime/debug"
	"sync"

	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
	"cfd/internal/xform"
)

// Build is one spec's program, compiled for the spec's core, and the
// memory image the program starts from. Simulate only reads the program
// and only clones the image, so one Build serves any number of runs, also
// concurrently.
type Build struct {
	prog *prog.Program
	img  *mem.Memory // owns no page: cloned, never read or written
}

// NewBuild builds rs's workload variant at input size n, compiled for
// rs.Config (workload.Spec.BuildFor).
func NewBuild(rs RunSpec, n int64) (*Build, error) {
	s, ok := workload.ByName(rs.Workload)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", rs.Workload)
	}
	p, m, err := s.BuildFor(rs.Config, rs.Variant, n)
	if err != nil {
		return nil, err
	}
	// A clone owns no page, so cloning it again writes nothing to it.
	return &Build{prog: p, img: m.Clone()}, nil
}

// Program returns the compiled program. It is shared: do not modify it.
func (b *Build) Program() *prog.Program { return b.prog }

// buildKey is everything a Build depends on: BuildFor reads only the
// workload, the variant, the input size and the transform parameters of
// the core (TestBuildForReadsOnlyQueueSizes pins the last).
type buildKey struct {
	workload string
	variant  workload.Variant
	n        int64
	params   xform.Params
}

// buildCache shares builds between the specs of one sweep: the first spec
// with a key builds, and every other spec with that key waits for and
// reuses its Build, or its error. A panicking builder is saved as a
// runtime-panic fault, so every spec sharing the key fails the same way
// and none waits forever. A nil *buildCache builds every call afresh.
type buildCache struct {
	mu sync.Mutex
	m  map[buildKey]*buildEntry
}

type buildEntry struct {
	done  chan struct{}
	b     *Build
	err   error
	panic *fault.Fault
}

func newBuildCache() *buildCache { return &buildCache{m: make(map[buildKey]*buildEntry)} }

// get returns rs's Build at input size n.
func (c *buildCache) get(rs RunSpec, n int64) (*Build, error) {
	if c == nil {
		return NewBuild(rs, n)
	}
	k := buildKey{rs.Workload, rs.Variant, n, xform.ParamsFrom(rs.Config)}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		e = &buildEntry{done: make(chan struct{})}
		c.m[k] = e
	}
	c.mu.Unlock()
	if ok {
		<-e.done
	} else {
		func() {
			defer close(e.done)
			defer func() {
				if v := recover(); v != nil {
					e.panic = fault.FromPanic(v, debug.Stack(), fault.Snapshot{Engine: "harness"})
				}
			}()
			e.b, e.err = NewBuild(rs, n)
		}()
	}
	if e.panic != nil {
		return nil, panicError(rs, e.panic)
	}
	return e.b, e.err
}

// panicError is the error of a run whose builder or engine panicked.
func panicError(rs RunSpec, f *fault.Fault) error {
	return fmt.Errorf("harness: %s/%s on %s: %w", rs.Workload, rs.Variant, rs.Config.Name, f)
}
