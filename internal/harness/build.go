package harness

import (
	"fmt"
	"runtime/debug"
	"sync"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
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
	// golden replays prog from img on the functional emulator, with the
	// queue sizes the program was compiled for, the first time a run of
	// this build is verified; every later call returns that replay. A
	// panicking replay panics again in every caller (sync.OnceValues).
	golden func() (*emu.Machine, error)
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
	img := m.Clone()
	q := xform.ParamsFrom(rs.Config)
	golden := sync.OnceValues(func() (*emu.Machine, error) {
		return emu.Replay(p, img.Clone(), emu.WithQueueSizes(q.BQSize, q.VQSize, q.TQSize))
	})
	return &Build{prog: p, img: img, golden: golden}, nil
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

// runKey is everything a run of a Build depends on besides the Runner's
// verify flag and watchdog, which are the same for every spec of a sweep:
// the build, the spec's core reduced to what the core reads of the program
// (pipeline.Reduce), and the spec's oracle and sampling modes. Simulate
// reads nothing else of a RunSpec but the names its errors carry.
type runKey struct {
	b                                  *Build
	cfg                                config.Core
	perfectAll, perfectCFD, sampleMSHR bool
	sampleEvery                        uint64
}

// buildCache shares builds, and the runs of each build, between the specs
// of one sweep. A nil *buildCache builds and simulates every call afresh.
//
// Builds: the first spec with a key builds, and every other spec with that
// key waits for and reuses its Build, or its error. A panicking builder is
// saved as a runtime-panic fault, so every spec sharing the key fails the
// same way and none waits forever.
//
// Runs: the first spec with a run key simulates, and every other spec with
// that key waits for that run and takes a copy of its Result with its own
// Spec. A run that fails or panics is not handed on: each waiter then
// simulates its own, so every error names its own spec.
type buildCache struct {
	mu   sync.Mutex
	m    map[buildKey]*buildEntry
	runs map[runKey]*runEntry
}

type buildEntry struct {
	done  chan struct{}
	b     *Build
	err   error
	panic *fault.Fault
}

// runEntry is one run key's shared run: res is set, before done closes,
// only when the run succeeded.
type runEntry struct {
	done chan struct{}
	res  *Result
}

func newBuildCache() *buildCache {
	return &buildCache{m: make(map[buildKey]*buildEntry), runs: make(map[runKey]*runEntry)}
}

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

// run returns rs's run of b, simulated by sim unless another spec of the
// sweep with the same run key already ran or is running it.
func (c *buildCache) run(rs RunSpec, b *Build, sim func() (*Result, error)) (*Result, error) {
	if c == nil {
		return sim()
	}
	k := runKey{b, pipeline.Reduce(rs.Config, b.prog), rs.PerfectAll, rs.PerfectCFD, rs.SampleMSHR, rs.SampleEvery}
	c.mu.Lock()
	e, ok := c.runs[k]
	if !ok {
		e = &runEntry{done: make(chan struct{})}
		c.runs[k] = e
	}
	c.mu.Unlock()
	if !ok {
		// Deferred, so a panicking run also releases its waiters.
		defer close(e.done)
		res, err := sim()
		if err == nil {
			e.res = res
		}
		return res, err
	}
	<-e.done
	if e.res == nil {
		return sim()
	}
	res := *e.res
	res.Spec = rs
	return &res, nil
}

// panicError is the error of a run whose builder or engine panicked.
func panicError(rs RunSpec, f *fault.Fault) error {
	return fmt.Errorf("harness: %s/%s on %s: %w", rs.Workload, rs.Variant, rs.Config.Name, f)
}
