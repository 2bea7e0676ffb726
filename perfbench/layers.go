package main

import (
	"runtime"
	"sort"
	"sync"

	"cfd/internal/cache"
	"cfd/internal/config"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/stats"
	"cfd/internal/store"
)

// counts sums the deterministic work counters of a spec set, read after
// each run from the core's public fields: Core.Stats and the memory
// hierarchy's LevelStats/MSHRStats/Prefetches.
type counts struct {
	Cycles, Retired, Fetched                   uint64
	SquashedUops, Recoveries, RetireRecoveries uint64

	CondBranches, Mispredicts, BTBMisfetches uint64

	BQPops, BQResolvedAtFetch, BQSpecPops, BQLateMispredicts uint64
	BQFullStallCycles, BQMissStallCycles                     uint64
	TQPops, TQMissStallCycles, TCRBranches                   uint64

	CPI [stats.NumCPIBuckets]uint64

	L1Accesses, L1Misses, L2Accesses, L2Misses, L3Accesses, L3Misses uint64
	MSHRMerges, MSHRStalls, Prefetches                               uint64
}

func (c *counts) add(core *pipeline.Core) {
	st := &core.Stats
	c.Cycles += st.Cycles
	c.Retired += st.Retired
	c.Fetched += st.Fetched
	c.SquashedUops += st.SquashedUops
	c.Recoveries += st.Recoveries
	c.RetireRecoveries += st.RetireRecoveries
	c.CondBranches += st.CondBranches
	c.Mispredicts += st.Mispredicts
	c.BTBMisfetches += st.BTBMisfetches
	c.BQPops += st.BQPops
	c.BQResolvedAtFetch += st.BQResolvedAtFetch
	c.BQSpecPops += st.BQMisses
	c.BQLateMispredicts += st.BQLateMispredict
	c.BQFullStallCycles += st.BQFullStalls
	c.BQMissStallCycles += st.BQMissStalls
	c.TQPops += st.TQPops
	c.TQMissStallCycles += st.TQMissStalls
	c.TCRBranches += st.TCRBranches
	for b, n := range st.CPI.Buckets {
		c.CPI[b] += n
	}
	h := core.Hierarchy()
	a, m := h.LevelStats(cache.L1)
	c.L1Accesses, c.L1Misses = c.L1Accesses+a, c.L1Misses+m
	a, m = h.LevelStats(cache.L2)
	c.L2Accesses, c.L2Misses = c.L2Accesses+a, c.L2Misses+m
	a, m = h.LevelStats(cache.L3)
	c.L3Accesses, c.L3Misses = c.L3Accesses+a, c.L3Misses+m
	merges, stalls := h.MSHRStats()
	c.MSHRMerges += merges
	c.MSHRStalls += stalls
	c.Prefetches += h.Prefetches()
}

// lockedCounts lets parallel replay workers add into one counts.
type lockedCounts struct {
	mu sync.Mutex
	c  counts
}

func (l *lockedCounts) add(core *pipeline.Core) {
	l.mu.Lock()
	l.c.add(core)
	l.mu.Unlock()
}

// allocs is the bytes allocated inside each measured call, summed over a
// spec set. It is measured in a separate serial pass, because the heap
// counters are process-wide and a parallel replay would mix workers.
type allocs struct {
	Build, New, Run uint64
}

// measure adds the bytes that build, pipeline.New and (*Core).Run
// allocate for one spec.
func (a *allocs) measure(cfg config.Core, build func() (*prog.Program, *mem.Memory, error)) error {
	var (
		p    *prog.Program
		m    *mem.Memory
		core *pipeline.Core
		err  error
	)
	sumAllocs(&a.Build, func() { p, m, err = build() })
	if err != nil {
		return err
	}
	sumAllocs(&a.New, func() { core, err = pipeline.New(cfg, p, m) })
	if err != nil {
		return err
	}
	sumAllocs(&a.Run, func() { err = core.Run(0) })
	return err
}

// sumAllocs adds the bytes allocated while f runs to *dst.
func sumAllocs(dst *uint64, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	*dst += after.TotalAlloc - before.TotalAlloc
}

// layerReport is everything a traced run knows about the layers. The sim
// workloads fill the pipeline, predictor, core, cache, workload, mem and
// emu parts; the campaign fills every part. A layer a workload does not
// exercise reports 0.
type layerReport struct {
	Counts   counts
	Layers   map[string]*layerTime
	OtherS   float64
	Alloc    allocs
	EmuInstr uint64 // instructions the emulator retired in verify and oracle runs

	TracedS, UntracedS float64 // wall of the traced and the untraced execution

	// Campaign only.
	SpecMs        []float64 // replayed per-spec span durations
	BusyFrac      float64
	HarnessAlloc  uint64 // bytes allocated during the cold phase
	GCCycles      uint32 // GC cycles during the cold phase
	Specs         int
	Store         store.Metrics
	StoreBytes    int64
	JournalEvents uint64
	JournalDrops  uint64
	JournalBytes  int64
	ExportBytes   int64
}

// metric is one reported per-layer figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const mb = 1 << 20

// metrics returns every per-layer metric, in the order BENCHMARK.json
// lists them.
func (r *layerReport) metrics() []metric {
	c := &r.Counts
	self := func(name string) float64 {
		if lt := r.Layers[name]; lt != nil {
			return lt.SelfS
		}
		return 0
	}
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	n := func(v uint64) float64 { return float64(v) }
	runS := self("pipeline.run")
	nsPerCycle := 0.0
	if c.Cycles > 0 {
		nsPerCycle = runS * 1e9 / float64(c.Cycles)
	}
	emuS := self("emu.verify") + self("emu.oracle")
	emuMIPS := 0.0
	if emuS > 0 {
		emuMIPS = float64(r.EmuInstr) / emuS / 1e6
	}
	out := []metric{
		{"pipeline.run_s", runS, "s"},
		{"pipeline.ns_per_cycle", nsPerCycle, "ns"},
		{"pipeline.run_alloc_mb", float64(r.Alloc.Run) / mb, "MB"},
		{"pipeline.new_s", self("pipeline.new"), "s"},
		{"pipeline.new_alloc_mb", float64(r.Alloc.New) / mb, "MB"},
		{"pipeline.cycles", n(c.Cycles), "cycles"},
		{"pipeline.retired", n(c.Retired), "count"},
		{"pipeline.fetched", n(c.Fetched), "count"},
		{"pipeline.useful_fetch_frac", frac(c.Retired, c.Fetched), "frac"},
		{"pipeline.squashed_uops", n(c.SquashedUops), "count"},
		{"pipeline.recoveries", n(c.Recoveries), "count"},
		{"pipeline.retire_recoveries", n(c.RetireRecoveries), "count"},
	}
	for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
		out = append(out, metric{"pipeline.cpi." + b.String(), frac(c.CPI[b], c.Cycles), "frac"})
	}
	out = append(out,
		metric{"predictor.cond_branches", n(c.CondBranches), "count"},
		metric{"predictor.mispredicts", n(c.Mispredicts), "count"},
		metric{"predictor.mpki", 1000 * frac(c.Mispredicts, c.Retired), "1/kinst"},
		metric{"predictor.btb_misfetches", n(c.BTBMisfetches), "count"},
		metric{"core.bq_pops", n(c.BQPops), "count"},
		metric{"core.bq_fetch_resolved", n(c.BQResolvedAtFetch), "count"},
		metric{"core.bq_fetch_resolved_frac", frac(c.BQResolvedAtFetch, c.BQPops), "frac"},
		metric{"core.bq_spec_pops", n(c.BQSpecPops), "count"},
		metric{"core.bq_late_mispredicts", n(c.BQLateMispredicts), "count"},
		metric{"core.bq_full_stall_cycles", n(c.BQFullStallCycles), "cycles"},
		metric{"core.bq_miss_stall_cycles", n(c.BQMissStallCycles), "cycles"},
		metric{"core.tq_pops", n(c.TQPops), "count"},
		metric{"core.tq_miss_stall_cycles", n(c.TQMissStallCycles), "cycles"},
		metric{"core.tcr_branches", n(c.TCRBranches), "count"},
		metric{"cache.l1_accesses", n(c.L1Accesses), "count"},
		metric{"cache.l1_misses", n(c.L1Misses), "count"},
		metric{"cache.l2_accesses", n(c.L2Accesses), "count"},
		metric{"cache.l2_misses", n(c.L2Misses), "count"},
		metric{"cache.l3_accesses", n(c.L3Accesses), "count"},
		metric{"cache.l3_misses", n(c.L3Misses), "count"},
		metric{"cache.mshr_merges", n(c.MSHRMerges), "count"},
		metric{"cache.mshr_stalls", n(c.MSHRStalls), "count"},
		metric{"cache.prefetches", n(c.Prefetches), "count"},
		metric{"workload.build_s", self("workload.build"), "s"},
		metric{"workload.build_alloc_mb", float64(r.Alloc.Build) / mb, "MB"},
		metric{"mem.clone_s", self("mem.clone"), "s"},
		metric{"emu.verify_s", self("emu.verify"), "s"},
		metric{"emu.oracle_s", self("emu.oracle"), "s"},
		metric{"emu.retired", n(r.EmuInstr), "count"},
		metric{"emu.mips", emuMIPS, "MIPS"},
		metric{"harness.sweep_s", self("harness.sweep"), "s"},
		metric{"harness.resume_sweep_s", self("harness.resume_sweep"), "s"},
		metric{"harness.worker_busy_frac", r.BusyFrac, "frac"},
		metric{"harness.spec_ms_p50", quantile(r.SpecMs, 0.50), "ms"},
		metric{"harness.spec_ms_p99", quantile(r.SpecMs, 0.99), "ms"},
		metric{"harness.spec_samples", float64(len(r.SpecMs)), "count"},
		metric{"harness.alloc_mb", float64(r.HarnessAlloc) / mb, "MB"},
		metric{"harness.gc_cycles", float64(r.GCCycles), "count"},
		metric{"harness.other_s", r.OtherS, "s"},
		metric{"manifest.expand_s", self("manifest.expand"), "s"},
		metric{"manifest.key_s", self("manifest.key"), "s"},
		metric{"manifest.specs", float64(r.Specs), "count"},
		metric{"store.put_s", self("store.put"), "s"},
		metric{"store.puts", n(r.Store.Puts), "count"},
		metric{"store.get_s", self("store.get"), "s"},
		metric{"store.hits", n(r.Store.Hits), "count"},
		metric{"store.misses", n(r.Store.Misses), "count"},
		metric{"store.quarantines", n(r.Store.Quarantines), "count"},
		metric{"store.retries", n(r.Store.Retries), "count"},
		metric{"store.put_failures", n(r.Store.PutFailures), "count"},
		metric{"store.bytes", float64(r.StoreBytes), "bytes"},
		metric{"journal.events", n(r.JournalEvents), "count"},
		metric{"journal.dropped", n(r.JournalDrops), "count"},
		metric{"journal.close_s", self("journal.close"), "s"},
		metric{"journal.bytes", float64(r.JournalBytes), "bytes"},
		metric{"export.build_s", self("export.build"), "s"},
		metric{"export.encode_s", self("export.encode"), "s"},
		metric{"export.bytes", float64(r.ExportBytes), "bytes"},
		metric{"trace.traced_s", r.TracedS, "s"},
		metric{"trace.untraced_s", r.UntracedS, "s"},
		metric{"trace.overhead_s", r.TracedS - r.UntracedS, "s"},
	)
	return out
}

// ratioBases names the numerator and denominator of each ratio metric, for
// the record: a ratio is never reported without its base.
var ratioBases = map[string][2]string{
	"pipeline.useful_fetch_frac":  {"pipeline.retired", "pipeline.fetched"},
	"pipeline.ns_per_cycle":       {"pipeline.run_s", "pipeline.cycles"},
	"pipeline.cpi.*":              {"cycles charged to the bucket", "pipeline.cycles"},
	"predictor.mpki":              {"predictor.mispredicts", "pipeline.retired / 1000"},
	"core.bq_fetch_resolved_frac": {"core.bq_fetch_resolved", "core.bq_pops"},
	"emu.mips":                    {"emu.retired", "emu.verify_s + emu.oracle_s"},
	"harness.worker_busy_frac":    {"harness.spec span time summed over workers", "trace.traced_s x host.nproc"},
	"harness.spec_ms_p50":         {"harness.spec span durations", "harness.spec_samples"},
	"harness.spec_ms_p99":         {"harness.spec span durations", "harness.spec_samples"},
	"trace.overhead_s":            {"trace.traced_s", "trace.untraced_s"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
