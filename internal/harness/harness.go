// Package harness runs the paper's experiments: for every table and figure
// in the evaluation (§VII), an experiment function builds the workload
// variants, runs them on the cycle-level pipeline (and the classifier where
// appropriate), and prints the same rows or series the paper reports.
//
// The Runner is safe for concurrent use: every experiment submits its
// RunSpecs up front through Sweep/Prefetch, which fan the simulations
// across a worker pool, and then assembles its rows serially from the
// memoized results — so output is byte-identical whatever Jobs is set to.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfd/internal/energy"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/fault"
	"cfd/internal/manifest"
	"cfd/internal/mem"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// Runner executes and memoizes simulation runs. The zero value is not
// usable; construct with NewRunner. A Runner is safe for concurrent use:
// the cache is mutex-guarded and per-key singleflight, so a spec submitted
// from any number of goroutines (or repeated across experiments) simulates
// exactly once.
type Runner struct {
	// Scale multiplies every workload's DefaultN (1.0 = full runs; tests
	// and quick sweeps use smaller fractions).
	Scale float64
	// Jobs bounds how many simulations Sweep runs concurrently
	// (0 = runtime.GOMAXPROCS(0)). Jobs == 1 preserves the strictly
	// serial execution order.
	Jobs int
	// Verify cross-checks every pipeline run against a fresh run of the
	// functional emulator — the golden architectural model — and fails
	// the run on any divergence in retired-instruction count,
	// architectural registers, or final memory.
	Verify bool
	// KeepGoing makes Sweep run every spec to completion instead of
	// cancelling on the first failure. Failed specs yield nil results;
	// their structured faults are collected by Failures and exported in
	// the document's faults section.
	KeepGoing bool
	// MaxCycles, when nonzero, arms a per-run watchdog cycle budget on
	// every simulation (and the same budget, counted in retired
	// instructions, on oracle pre-runs of the emulator).
	MaxCycles uint64
	// RunTimeout, when nonzero, arms a per-run wall-clock deadline on
	// every simulation. Expiry surfaces as a WatchdogExpiry fault with a
	// machine-state snapshot, not a hung sweep.
	RunTimeout time.Duration
	// Store, when non-nil, persists every completed result (and every
	// memoized deterministic typed fault) across processes: a cache miss
	// consults the store before simulating, so an interrupted sweep
	// resumed with the same store re-runs only the missing cells. Open
	// one with OpenStore; see persist.go for the key and quarantine
	// rules. Set before the Runner is shared between goroutines.
	Store *store.Store
	// BaseCtx, when non-nil, is the context Prefetch sweeps under
	// (experiments call Prefetch, which has no ctx parameter of its
	// own). Cancelling it makes an in-progress sweep drain: no new
	// simulations start, in-flight ones run to completion — and, with a
	// Store attached, flush to disk — before Sweep returns the
	// cancellation error. This is how cfdbench turns SIGINT/SIGTERM
	// into a clean resumable exit. Set before the Runner is shared
	// between goroutines.
	BaseCtx context.Context
	// Journal, when non-nil, receives the structured sweep event stream
	// (cfd-journal JSONL): sweep start/finish, per-spec
	// submit/start/done with result counters, and watchdog expiries.
	// Events go through the journal's buffered bus, so the sweep never
	// waits on journal I/O; a nil Journal costs one nil test and zero
	// allocations on the per-spec path. Set before the Runner is shared
	// between goroutines.
	Journal *journal.Journal
	// ManifestDigest, when non-empty, is the content digest of the
	// manifest whose expansion drives this Runner's sweeps; the journal's
	// sweep_start events carry it, tying the event stream back to the
	// exact declaration that produced the campaign. Set before the Runner
	// is shared between goroutines.
	ManifestDigest string

	mu    sync.Mutex
	cache map[string]*cacheEntry

	sweepSeq atomic.Uint64

	lookups     atomic.Uint64
	simulations atomic.Uint64
	cacheHits   atomic.Uint64
}

// Metrics is a snapshot of the Runner's cache counters. All three are
// deterministic for a given experiment sequence — a duplicate spec counts
// as a cache hit whether it joined an in-flight simulation or found a
// finished one, and a cache miss counts as a simulation whether it was
// computed fresh or restored from the persistent store — so metric deltas
// are safe to include in exported output that must be byte-identical
// across -jobs settings and across interrupted-then-resumed sweeps. The
// fresh-vs-restored split (which is a property of the process's history,
// not of the experiment) is reported separately by Store.Metrics.
type Metrics struct {
	Lookups     uint64 `json:"lookups"`     // Run/RunCtx calls
	Simulations uint64 `json:"simulations"` // cache misses materialized (simulated or store-restored)
	CacheHits   uint64 `json:"cacheHits"`   // lookups served by the cache
}

// Metrics returns the Runner's cumulative cache counters.
func (r *Runner) Metrics() Metrics {
	return Metrics{
		Lookups:     r.lookups.Load(),
		Simulations: r.simulations.Load(),
		CacheHits:   r.cacheHits.Load(),
	}
}

// Sub returns the counter deltas m - prev (e.g. per-experiment metrics from
// before/after snapshots).
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		Lookups:     m.Lookups - prev.Lookups,
		Simulations: m.Simulations - prev.Simulations,
		CacheHits:   m.CacheHits - prev.CacheHits,
	}
}

// cacheEntry is the singleflight slot for one RunSpec key: the first
// caller simulates and closes done; everyone else waits on done and reads
// the memoized outcome (errors are memoized too — simulation is
// deterministic, so retrying cannot help).
type cacheEntry struct {
	done chan struct{}
	spec RunSpec
	res  *Result
	err  error
}

// NewRunner returns a Runner at the given scale.
func NewRunner(scale float64) *Runner {
	return &Runner{Scale: scale, cache: make(map[string]*cacheEntry)}
}

// jobs resolves the effective worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// RunSpec identifies one simulation run.
type RunSpec struct {
	Workload   string
	Variant    workload.Variant
	Config     config.Core
	PerfectAll bool // perfect prediction for all conditional branches
	PerfectCFD bool // perfect prediction for the separable branches only
	SampleMSHR bool // record the L1 MSHR occupancy histogram (Fig 25a)
	// SampleEvery, when nonzero, attaches an interval sampler to the run:
	// the result carries an IPC/stall/occupancy time series sampled every
	// SampleEvery cycles plus full-run queue-occupancy histograms. It is
	// part of the cache key: a sampled and an unsampled run of the same
	// configuration are distinct simulations.
	SampleEvery uint64
}

// Result is the outcome of one run.
type Result struct {
	Spec          RunSpec
	Stats         pipeline.Stats
	EnergyTotal   float64
	EnergyDynamic float64
	EnergyLeakage float64
	EnergyQueue   float64
	// EnergyEvents is the per-event access count, keyed by event name
	// (zero-count events omitted).
	EnergyEvents map[string]uint64
	MSHRHist     []uint64
	// Timeseries and Occupancy are populated when the spec set SampleEvery:
	// the interval-sampled telemetry series and the full-run architectural
	// queue-occupancy histograms. Nil otherwise.
	Timeseries *obs.TimeseriesSection
	Occupancy  *obs.OccupancySection
}

// Speedup returns base cycles over r's cycles; both runs must perform the
// same architectural work (the workload contract guarantees it).
func Speedup(base, r *Result) float64 {
	return float64(base.Stats.Cycles) / float64(r.Stats.Cycles)
}

// EnergyReduction returns the fractional energy saved versus base.
func EnergyReduction(base, r *Result) float64 {
	return 1 - r.EnergyTotal/base.EnergyTotal
}

// EffIPC returns the paper's effective IPC: baseline retired instructions
// over this scheme's cycles, so instruction overheads do not flatter a
// transformation (§VII).
func EffIPC(base, r *Result) float64 {
	return float64(base.Stats.Retired) / float64(r.Stats.Cycles)
}

// key returns the spec's deterministic cache/store identity. Every RunSpec
// field participates (pinned by TestRunSpecKeyCoversEveryField): the
// human-readable prefix names the run, and the trailing digest covers the
// complete Config struct — so two specs differing in any configuration
// detail, even one the Name does not encode, can never alias to one
// cache or store entry. The format is defined by manifest.Spec.Key —
// manifests are the single source of spec enumeration, so the identity
// lives with the declarative layer — and the struct conversion is the
// compile-time pin that RunSpec and manifest.Spec never drift apart.
func (rs RunSpec) key() string {
	return manifest.Spec(rs).Key()
}

// Key is the exported form of the spec's deterministic identity, for
// tools that journal runs outside a Runner (e.g. cfdsim -journal).
func (rs RunSpec) Key() string { return rs.key() }

// Run executes (or recalls) one simulation.
func (r *Runner) Run(rs RunSpec) (*Result, error) {
	return r.RunCtx(context.Background(), rs)
}

// RunCtx is Run with cancellation: a caller blocked on another
// goroutine's in-flight simulation of the same spec returns early when ctx
// is done (the simulation itself runs to completion and stays memoized).
func (r *Runner) RunCtx(ctx context.Context, rs RunSpec) (*Result, error) {
	res, err, _ := r.runCtx(ctx, rs, 0)
	return res, err
}

// runCtx is the memoizing core shared by RunCtx and Sweep. sweep is the
// journal scope's sequence number (0 outside a journaled sweep); the
// returned runInfo says how the result materialized, feeding the journal.
func (r *Runner) runCtx(ctx context.Context, rs RunSpec, sweep uint64) (*Result, error, runInfo) {
	key := rs.key()
	r.lookups.Add(1)
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*cacheEntry)
	}
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		r.cacheHits.Add(1)
		select {
		case <-e.done:
			return e.res, e.err, runInfo{cacheHit: true}
		case <-ctx.Done():
			return nil, ctx.Err(), runInfo{cacheHit: true}
		}
	}
	e := &cacheEntry{done: make(chan struct{}), spec: rs}
	r.cache[key] = e
	r.mu.Unlock()
	r.simulations.Add(1)
	if r.Store != nil {
		if res, lerr, ok := r.storeLoad(rs, key); ok {
			e.res, e.err = res, lerr
			close(e.done)
			return e.res, e.err, runInfo{storeHit: true}
		}
	}
	if j := r.Journal; j != nil && sweep != 0 {
		j.Emit(journal.Event{
			Type: journal.SpecStart, Sweep: sweep, Key: key,
			Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
		})
	}
	var info runInfo
	e.res, e.err = r.simulate(rs)
	if r.Store != nil {
		info.stored = r.storePersist(rs, key, e.res, e.err)
	}
	close(e.done)
	return e.res, e.err, info
}

// Results returns every successfully completed memoized result, sorted by
// spec key. In-flight and failed entries are skipped, so the snapshot is a
// pure function of which specs have finished — the stable iteration order
// is what makes the JSON export byte-identical for any Jobs setting.
func (r *Runner) Results() []*Result {
	out := make([]*Result, 0)
	for _, e := range r.completed() {
		if e.err == nil && e.res != nil {
			out = append(out, e.res)
		}
	}
	return out
}

// Failure pairs a failed run's spec with its (memoized) error. The error is
// usually a *fault.Fault — a typed fault with a machine-state snapshot —
// but build and lookup errors pass through untyped.
type Failure struct {
	Spec RunSpec
	Err  error
}

// Failures returns every completed memoized failure, sorted by spec key —
// the same stable order as Results, so the export document's faults section
// is byte-identical for any Jobs setting.
func (r *Runner) Failures() []Failure {
	out := make([]Failure, 0)
	for _, e := range r.completed() {
		if e.err != nil {
			out = append(out, Failure{Spec: e.spec, Err: e.err})
		}
	}
	return out
}

// completed snapshots the cache's finished entries in spec-key order;
// entries still simulating are skipped.
func (r *Runner) completed() []*cacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.cache))
	for k := range r.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*cacheEntry, 0, len(keys))
	for _, k := range keys {
		e := r.cache[k]
		select {
		case <-e.done:
			out = append(out, e)
		default: // still simulating
		}
	}
	return out
}

// watchdog builds the per-run watchdog from the Runner's budget fields, or
// nil when no budget is set. Each simulation gets its own instance so the
// wall-clock deadline is measured from that run's start.
func (r *Runner) watchdog() *fault.Watchdog {
	if r.MaxCycles == 0 && r.RunTimeout == 0 {
		return nil
	}
	w := &fault.Watchdog{MaxCycles: r.MaxCycles}
	if r.RunTimeout > 0 {
		w.Deadline = time.Now().Add(r.RunTimeout)
	}
	return w
}

// Test hooks: set before any goroutines start and restored after they
// finish, so tests can force specific interleavings (e.g. the sweep
// cancellation race) deterministically. Nil in production.
var (
	testOnSimulate    func(RunSpec)   // called at the top of simulate
	testOnSweepCancel func()          // called after a failing spec cancels a sweep
	testOnSweepSpecs  func([]RunSpec) // called with every Sweep's spec list before work starts
)

// simulate performs the actual cycle-level run for rs (no caching). A panic
// escaping either engine (or a workload builder) is contained here and
// memoized as a RuntimePanic fault, so one dying run cannot take down a
// sweep's worker pool.
func (r *Runner) simulate(rs RunSpec) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			f := fault.FromPanic(v, debug.Stack(), fault.Snapshot{Engine: "harness"})
			res, err = nil, fmt.Errorf("harness: %s/%s on %s: %w",
				rs.Workload, rs.Variant, rs.Config.Name, f)
		}
	}()
	if h := testOnSimulate; h != nil {
		h(rs)
	}
	s, ok := workload.ByName(rs.Workload)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", rs.Workload)
	}
	p, m, err := s.Build(rs.Variant, r.workloadN(s))
	if err != nil {
		return nil, err
	}
	wd := r.watchdog()

	var opts []pipeline.Option
	if wd != nil {
		opts = append(opts, pipeline.WithWatchdog(wd))
	}
	if rs.PerfectAll || rs.PerfectCFD {
		perfect := map[uint64]bool{}
		if rs.PerfectCFD {
			for _, pc := range workload.SeparablePCs(p) {
				perfect[pc] = true
			}
		}
		oracle := pipeline.NewOracle()
		emuOpts := []emu.Option{emu.WithTracer(emu.TracerFunc(func(ev emu.Event) {
			if ev.Inst.Op.IsCondBranch() && (rs.PerfectAll || perfect[ev.PC]) {
				oracle.Record(ev.PC, ev.Taken)
			}
		}))}
		if wd != nil {
			emuOpts = append(emuOpts, emu.WithWatchdog(wd))
		}
		em := emu.New(p, m.Clone(), emuOpts...)
		if err := em.Run(500_000_000); err != nil {
			return nil, fmt.Errorf("harness: oracle pre-run %s/%s: %w", rs.Workload, rs.Variant, err)
		}
		opts = append(opts, pipeline.WithOracle(oracle))
		if rs.PerfectAll {
			opts = append(opts, pipeline.WithPerfectBP())
		}
	}
	var init *mem.Memory
	if r.Verify {
		init = m.Clone()
	}
	cfg := rs.Config
	cfg.Cache.SampleMSHRs = rs.SampleMSHR
	var obsv *obs.Observer
	if rs.SampleEvery > 0 {
		obsv = obs.NewObserver(rs.SampleEvery, cfg.BQSize, cfg.VQSize, cfg.TQSize)
		opts = append(opts, pipeline.WithObserver(obsv))
	}
	core, err := pipeline.New(cfg, p, m, opts...)
	if err != nil {
		return nil, err
	}
	if err := core.Run(0); err != nil {
		return nil, fmt.Errorf("harness: %s/%s on %s: %w", rs.Workload, rs.Variant, cfg.Name, err)
	}
	core.FinishObservation()
	if r.Verify {
		if err := emu.VerifyArch(p, init, core.ArchRegs(), core.Mem(), core.Stats.Retired,
			emu.WithQueueSizes(cfg.BQSize, cfg.VQSize, cfg.TQSize)); err != nil {
			return nil, fmt.Errorf("harness: differential verification of %s/%s on %s: %w",
				rs.Workload, rs.Variant, cfg.Name, err)
		}
	}
	events := make(map[string]uint64)
	for e := 0; e < energy.NumEvents; e++ {
		if n := core.Meter.Counts[e]; n != 0 {
			events[energy.Event(e).String()] = n
		}
	}
	return &Result{
		Spec:          rs,
		Stats:         core.Stats,
		EnergyTotal:   core.Meter.Total(),
		EnergyDynamic: core.Meter.Dynamic(),
		EnergyLeakage: core.Meter.Leakage(),
		EnergyQueue:   core.Meter.QueueEnergy(),
		EnergyEvents:  events,
		MSHRHist:      core.Hierarchy().Hist,
		Timeseries:    obsv.Timeseries(),
		Occupancy:     obsv.Occupancy(),
	}, nil
}

// Experiment regenerates one paper table or figure. Its simulation needs
// are declared, not coded: Manifest (when non-nil) is the single source
// of the experiment's spec set, expanded and prefetched by RunExperiment
// before Run assembles the rows; Run itself only replays memoized
// lookups. Experiments with no registered-workload simulations (custom
// programs, classification studies, static tables) have a nil Manifest.
type Experiment struct {
	ID    string // "fig18", "table1", ...
	Title string
	// Manifest declares the experiment's workload×variant×config spec
	// set. The expansions are pinned against the legacy hand-written
	// enumerations by testdata/specsets.
	Manifest *manifest.Manifest
	// Tolerant makes RunExperiment ignore prefetch failures (other than
	// cancellation): the experiment's table renders failed cells as "err"
	// or "-" instead of aborting (Tables III/IV sweep variants that may
	// legitimately fault).
	Tolerant bool
	Run      func(r *Runner, w io.Writer) error
}

// Specs expands the experiment's embedded manifest into its RunSpec set,
// sorted by spec key and duplicate-free. Experiments without a manifest
// return nil.
func (e *Experiment) Specs() ([]RunSpec, error) {
	if e.Manifest == nil {
		return nil, nil
	}
	return SpecsFromManifest(e.Manifest)
}

// SpecsFromManifest expands any manifest into harness RunSpecs. The
// element-wise struct conversion is the compile-time pin that the two
// spec types stay field-identical.
func SpecsFromManifest(m *manifest.Manifest) ([]RunSpec, error) {
	specs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]RunSpec, len(specs))
	for i, sp := range specs {
		out[i] = RunSpec(sp)
	}
	return out, nil
}

// RunExperiment expands the experiment's manifest, prefetches the spec
// set across the worker pool, and then runs the experiment's assembly
// phase. Tolerant experiments proceed to assembly even when some specs
// faulted; cancellation always propagates so an interrupted sweep drains
// instead of assembling partial tables.
func (r *Runner) RunExperiment(e *Experiment, w io.Writer) error {
	specs, err := e.Specs()
	if err != nil {
		return err
	}
	if len(specs) > 0 {
		if err := r.Prefetch(specs...); err != nil {
			if !e.Tolerant || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
		}
	}
	return e.Run(r, w)
}

var experiments = map[string]*Experiment{}

func registerExp(e *Experiment) {
	if _, dup := experiments[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	experiments[e.ID] = e
}

// ByID returns one experiment.
func ByID(id string) (*Experiment, bool) {
	e, ok := experiments[id]
	return e, ok
}

// AllExperiments returns every experiment sorted by ID.
func AllExperiments() []*Experiment {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Experiment, len(ids))
	for i, id := range ids {
		out[i] = experiments[id]
	}
	return out
}
