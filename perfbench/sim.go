package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// The sim-base and sim-cfd workloads: one goroutine runs every spec of the
// set serially through workload.(*Spec).Build, pipeline.New and
// (*Core).Run on config.SandyBridge(), and checks each run, untimed, with
// emu.VerifyArch and, for the default seed, against the pinned counts.

// simScale multiplies each workload's TestN, as `cfdbench -speed` does.
const simScale = 4

// sizeBand is the half-width, as a share of the stated size, of the band a
// seed other than the default draws each spec's input size from.
const sizeBand = 0.03

// simSpec is one run of a sim workload.
type simSpec struct {
	spec    *workload.Spec
	Name    string           `json:"workload"`
	Variant workload.Variant `json:"variant"`
	N       int64            `json:"n"`
}

func (s simSpec) key() string { return s.Name + "/" + string(s.Variant) }

// simSpecs returns the base variant of every registered workload (cfd
// false) or every other variant (cfd true).
func simSpecs(cfd bool, seed int64) []simSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []simSpec
	for _, s := range workload.All() {
		for _, v := range s.Variants {
			if (v != workload.Base) != cfd {
				continue
			}
			n := s.TestN * simScale
			if seed != defaultSeed {
				n = int64(math.Round(float64(n) * (1 + sizeBand*(2*rng.Float64()-1))))
			}
			out = append(out, simSpec{spec: s, Name: s.Name, Variant: v, N: n})
		}
	}
	return out
}

// simRun is the work count of one spec's run.
type simRun struct {
	Retired uint64
	Cycles  uint64
}

// simPassOut is one pass over a spec set.
type simPassOut struct {
	wall     time.Duration // the whole pass
	work     time.Duration // inside Build, Clone, New, Run and VerifyArch
	run      time.Duration // inside (*Core).Run
	verify   time.Duration // inside emu.VerifyArch
	counts   counts
	emuInstr uint64
	runs     map[string]simRun
	failures map[string]string // spec key → its error

	// Calibrated times (see calibrate.go) and the reference kernel's time.
	calWork, calRun, calVerify float64
	cal                        calib
}

// simPass builds, runs and verifies every spec once. With a tracer, each
// layer call is a span under one window span.
func simPass(specs []simSpec, cfg config.Core, tr *tracer) simPassOut {
	out := simPassOut{
		runs:     make(map[string]simRun, len(specs)),
		failures: make(map[string]string),
	}
	t0 := time.Now()
	win := tr.begin(spanWindow, -1, -1)
	for i, sp := range specs {
		if err := simOne(sp, cfg, tr, win, i, &out); err != nil {
			out.failures[sp.key()] = fmt.Sprintf("%s n=%d: %v", sp.key(), sp.N, err)
		}
	}
	tr.end(win)
	out.wall = time.Since(t0)
	return out
}

func simOne(sp simSpec, cfg config.Core, tr *tracer, win, req int, out *simPassOut) error {
	var (
		p       *prog.Program
		m, init *mem.Memory
		core    *pipeline.Core
		err     error
		cal     calib
		work    time.Duration
	)
	// Each spec's times are calibrated by the reference kernel bracketing
	// its Run (see calibrate.go); a traced pass skips the kernel.
	defer func() {
		out.work += work
		out.calWork += cal.seconds(work)
		out.cal.ref += cal.ref
		out.cal.calls += cal.calls
	}()
	work += timed(tr, "workload.build", win, req, func() { p, m, err = sp.spec.Build(sp.Variant, sp.N) })
	if err != nil {
		return err
	}
	work += timed(tr, "mem.clone", win, req, func() { init = m.Clone() })
	work += timed(tr, "pipeline.new", win, req, func() { core, err = pipeline.New(cfg, p, m) })
	if err != nil {
		return err
	}
	// Collect the garbage of earlier specs first, so that no collection
	// runs during the timed Run.
	runtime.GC()
	if tr == nil {
		cal.sample(1)
	}
	d := timed(tr, "pipeline.run", win, req, func() { err = core.Run(0) })
	if tr == nil {
		cal.sample(1)
	}
	work += d
	out.run += d
	out.calRun += cal.seconds(d)
	if err != nil {
		return err
	}
	d = timed(tr, "emu.verify", win, req, func() {
		err = emu.VerifyArch(p, init, core.ArchRegs(), core.Mem(), core.Stats.Retired,
			emu.WithQueueSizes(cfg.BQSize, cfg.VQSize, cfg.TQSize))
	})
	work += d
	out.verify += d
	out.calVerify += cal.seconds(d)
	if err != nil {
		return err
	}
	out.counts.add(core)
	out.emuInstr += core.Stats.Retired
	out.runs[sp.key()] = simRun{Retired: core.Stats.Retired, Cycles: core.Stats.Cycles}
	return nil
}

// simSetup is the set-up a pass pays before simulating: Build and
// pipeline.New for the whole spec set. A collection between specs, outside
// the timing, keeps the heap's peak, and so peak_rss_mb, independent of
// when the collector would have run.
func simSetup(specs []simSpec, cfg config.Core) (time.Duration, error) {
	var total time.Duration
	for _, sp := range specs {
		runtime.GC()
		t0 := time.Now()
		p, m, err := sp.spec.Build(sp.Variant, sp.N)
		if err == nil {
			_, err = pipeline.New(cfg, p, m)
		}
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sp.key(), err)
		}
	}
	return total, nil
}

// simAllocs measures, serially and untraced, the bytes Build, pipeline.New
// and (*Core).Run allocate over the spec set.
func simAllocs(specs []simSpec, cfg config.Core) (allocs, error) {
	var a allocs
	for _, sp := range specs {
		err := a.measure(cfg, func() (*prog.Program, *mem.Memory, error) { return sp.spec.Build(sp.Variant, sp.N) })
		if err != nil {
			return a, fmt.Errorf("%s: %w", sp.key(), err)
		}
	}
	return a, nil
}

// simWorkload runs sim-base (cfd false) or sim-cfd (cfd true).
func simWorkload(e *env, cfd bool) (*outcome, error) {
	cfg := config.SandyBridge()
	specs := simSpecs(cfd, e.seed)
	o := &outcome{inputs: specs}
	for i := 0; i < setupRounds; i++ {
		var c calib
		c.sample(2)
		d, err := simSetup(specs, cfg)
		if err != nil {
			return nil, err
		}
		c.sample(2)
		o.recordRaw("setup_s", "s", d.Seconds())
		o.record("setup_s", "s", c.seconds(d))
	}
	// check counts one pass's operations and its failures: a fault or a
	// VerifyArch divergence, work that differs from the first pass's, or,
	// for the default seed, from the pinned counts.
	var first map[string]simRun
	check := func(p simPassOut) {
		o.attempted += len(specs)
		for _, sp := range specs {
			k := sp.key()
			got, ok := p.runs[k]
			switch {
			case !ok:
				o.fail("%s", p.failures[k])
			case first != nil && got != first[k]:
				o.fail("%s: work changed between passes: %+v, then %+v", k, first[k], got)
			case e.seed == defaultSeed && !pins.Sim[k].matches(sp.N, got):
				o.fail("%s n=%d: retired %d, cycles %d; pinned %+v", k, sp.N, got.Retired, got.Cycles, pins.Sim[k])
			}
		}
		if first == nil {
			first = p.runs
		}
	}
	if e.trace {
		untraced := simPass(specs, cfg, nil)
		check(untraced)
		tr := newTracer()
		traced := simPass(specs, cfg, tr)
		check(traced)
		a, err := simAllocs(specs, cfg)
		if err != nil {
			return nil, err
		}
		o.layers = &layerReport{
			Counts:    traced.counts,
			Alloc:     a,
			EmuInstr:  traced.emuInstr,
			TracedS:   traced.wall.Seconds(),
			UntracedS: (untraced.wall - untraced.cal.ref).Seconds(), // the traced pass skips the kernel
		}
		o.layers.Layers, o.layers.OtherS = tr.summary()
		o.spans = tr
		return o, nil
	}
	start := time.Now()
	for first == nil || time.Since(start) < e.seconds {
		p := simPass(specs, cfg, nil)
		check(p)
		o.recordRaw("pipe_mips", "MIPS", float64(p.counts.Retired)/p.run.Seconds()/1e6)
		o.recordRaw("campaign_s", "s", p.work.Seconds())
		o.recordRaw("resume_s", "s", p.verify.Seconds())
		o.recordRaw("reference_ms", "ms", p.cal.refMs())
		o.record("pipe_mips", "MIPS", float64(p.counts.Retired)/p.calRun/1e6)
		o.record("campaign_s", "s", p.calWork)
		o.record("resume_s", "s", p.calVerify)
		o.record("sim_cycles", "cycles", float64(p.counts.Cycles))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.record("peak_rss_mb", "MB", rss)
	return o, nil
}
