package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cfd/internal/emu"
	"cfd/internal/energy"
	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/manifest"
	"cfd/internal/mem"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// The campaign workload: a pinned copy of examples/manifest/grid.json
// (1584 specs) swept at scale 0.003 through harness.Runner with Verify, a
// fresh Store and a Journal, then exported with export.Build and Encode,
// as `cfdbench -manifest` does; then the same manifest again against the
// now warm store, which restores every result instead of simulating. The
// seed picks the submission order; the scale fixes the input sizes.

//go:embed grid.json
var gridJSON []byte

const (
	campaignScale = 0.003
	campaignSpecs = 1584
)

// resumeRounds is how many times each cycle resumes from its warm store: a
// resume takes a quarter of a second, so one would be a noisy sample.
const resumeRounds = 6

// campaignN is the input size harness.Runner resolves for s at
// campaignScale: DefaultN × Scale, floored at 256.
func campaignN(s *workload.Spec) int64 {
	return max(int64(float64(s.DefaultN)*campaignScale), 256)
}

// campaign is one set-up campaign: the manifest, its specs in submission
// order, and a fresh directory holding the stores, the journal and the
// documents.
type campaign struct {
	dir   string
	mf    *manifest.Manifest
	specs []harness.RunSpec
	st    *store.Store
	jr    *journal.Journal
}

// setUpCampaign expands the manifest and opens a fresh store and journal,
// and returns how long those three took.
func setUpCampaign(e *env, tr *tracer) (*campaign, time.Duration, error) {
	dir, err := os.MkdirTemp(e.work, "campaign-")
	if err != nil {
		return nil, 0, err
	}
	c := &campaign{dir: dir}
	t0 := time.Now()
	timed(tr, "manifest.expand", -1, -1, func() {
		c.mf, err = manifest.Parse(bytes.NewReader(gridJSON))
		if err == nil {
			c.specs, err = harness.SpecsFromManifest(c.mf)
		}
	})
	if err == nil {
		c.st, err = harness.OpenStore(filepath.Join(dir, "store"))
	}
	if err == nil {
		c.jr, err = journal.Open(filepath.Join(dir, "cold.journal"), "perfbench")
	}
	d := time.Since(t0)
	if err != nil {
		return nil, 0, errors.Join(err, os.RemoveAll(dir))
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(c.specs), func(i, j int) { c.specs[i], c.specs[j] = c.specs[j], c.specs[i] })
	return c, d, nil
}

// close ends the journal and removes the campaign's directory.
func (c *campaign) close() error {
	return errors.Join(c.jr.Close(), os.RemoveAll(c.dir))
}

// phase is one sweep of the campaign's specs and the export of its
// document: what one `cfdbench -manifest -store -journal -json` invocation
// does after its set-up.
type phase struct {
	wall, sweep time.Duration
	doc         string        // path of the exported document
	store       store.Metrics // this phase's store handle
	alloc       uint64        // bytes allocated during the phase
	gcCycles    uint32
}

func (c *campaign) runPhase(e *env, st *store.Store, jr *journal.Journal, sweepSpan, name string, tr *tracer) (*phase, error) {
	r := harness.NewRunner(campaignScale)
	r.Jobs = e.jobs
	r.Verify = true
	r.KeepGoing = true
	r.Store = st
	r.Journal = jr
	r.ManifestDigest = c.mf.Digest()
	p := &phase{doc: filepath.Join(c.dir, name+".json")}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var err error
	p.sweep = timed(tr, sweepSpan, -1, -1, func() { _, err = r.Sweep(context.Background(), c.specs) })
	if err != nil {
		return nil, err
	}
	if jr != nil {
		timed(tr, "journal.close", -1, -1, func() { err = jr.Close() })
		if err != nil {
			return nil, err
		}
	}
	var doc *export.Document
	timed(tr, "export.build", -1, -1, func() {
		doc = export.Build("perfbench", r, []export.Experiment{{
			ID: "manifest:" + c.mf.Name, Title: "manifest sweep " + c.mf.Name, Metrics: r.Metrics(),
		}})
		doc.Manifest = &export.ManifestSection{
			Path: "perfbench/grid.json", Name: c.mf.Name, Schema: c.mf.Schema,
			Version: c.mf.Version, Digest: c.mf.Digest(), Specs: len(c.specs),
		}
	})
	timed(tr, "export.encode", -1, -1, func() { err = export.WriteFile(p.doc, doc) })
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.store = st.Metrics()
	return p, err
}

// cycle runs the cold phase and then rounds resumes, each of which opens
// the warm store as a rerun with the same -store directory does. Only the
// cold phase keeps a journal: a resume's burst of store hits can fill the
// journal's bus, and a full bus deadlocks Journal.Emit against the
// journal's writer (Emit holds the journal's lock while it waits for room,
// and the writer takes that lock after every event).
func (c *campaign) cycle(e *env, rounds int, tr *tracer) (cold *phase, resumes []*phase, err error) {
	cold, err = c.runPhase(e, c.st, c.jr, "harness.sweep", "cold", tr)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		st, err := harness.OpenStore(filepath.Join(c.dir, "store"))
		if err != nil {
			return nil, nil, err
		}
		open := time.Since(t0)
		resume, err := c.runPhase(e, st, nil, "harness.resume_sweep", fmt.Sprintf("resume%d", i), tr)
		if err != nil {
			return nil, nil, err
		}
		resume.wall += open
		resumes = append(resumes, resume)
	}
	return cold, resumes, nil
}

// check decodes every document with export.Decode and requires every spec
// to have run without a fault, each resume to have restored every result
// from the store, and each resume document to equal the cold one once the
// process-history sections (store and journal) are removed. It returns the
// cold document's retired instructions and simulated cycles.
func (c *campaign) check(o *outcome, cold *phase, resumes []*phase) (retired, cycles uint64) {
	phases := append([]*phase{cold}, resumes...)
	o.attempted += len(phases)*len(c.specs) + 2*len(resumes) + 1
	enc := make([][]byte, len(phases))
	for i, p := range phases {
		doc, err := decodeFile(p.doc)
		if err != nil {
			o.fail("%v", err)
			return 0, 0
		}
		for _, f := range doc.Faults {
			o.fail("%s/%s on %s: %s", f.Workload, f.Variant, f.Config, f.Error)
		}
		if len(doc.Runs) != campaignSpecs {
			o.fail("%s: %d runs, want %d", filepath.Base(p.doc), len(doc.Runs), campaignSpecs)
		}
		if i == 0 {
			for _, run := range doc.Runs {
				retired += run.Counters.Retired
				cycles += run.Counters.Cycles
			}
		}
		doc.Store, doc.Journal = nil, nil
		var buf bytes.Buffer
		if err := export.Encode(&buf, doc); err != nil {
			o.fail("%v", err)
			return 0, 0
		}
		enc[i] = buf.Bytes()
	}
	n := uint64(len(c.specs))
	if cold.store.Puts != n {
		o.fail("store: cold phase put %d entries, want %d", cold.store.Puts, n)
	}
	for i, r := range resumes {
		if !bytes.Equal(enc[0], enc[i+1]) {
			o.fail("resume %d: the document differs from the cold one outside the store and journal sections", i)
		}
		if r.store.Hits != n || r.store.Misses != 0 {
			o.fail("resume %d: %d store hits and %d misses, want %d and 0", i, r.store.Hits, r.store.Misses, n)
		}
	}
	if pin := pins.Campaign; pin.Specs != len(c.specs) || pin.Retired != retired || pin.Cycles != cycles {
		o.fail("campaign: %d specs, retired %d, cycles %d; pinned %+v", len(c.specs), retired, cycles, pin)
	}
	return retired, cycles
}

func decodeFile(path string) (*export.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := export.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// campaignInputs records the manifest and each workload's resolved input
// size.
func campaignInputs(c *campaign) any {
	sizes := make(map[string]int64)
	for _, rs := range c.specs {
		if s, ok := workload.ByName(rs.Workload); ok {
			sizes[rs.Workload] = campaignN(s)
		}
	}
	return struct {
		Manifest string           `json:"manifest"`
		Digest   string           `json:"digest"`
		Specs    int              `json:"specs"`
		Scale    float64          `json:"scale"`
		N        map[string]int64 `json:"n"`
	}{c.mf.Name, c.mf.Digest(), len(c.specs), campaignScale, sizes}
}

func campaignWorkload(e *env) (*outcome, error) {
	o := &outcome{}
	for i := 0; i < setupRounds; i++ {
		var cal calib
		cal.sample(2)
		c, d, err := setUpCampaign(e, nil)
		if err != nil {
			return nil, err
		}
		cal.sample(2)
		o.inputs = campaignInputs(c)
		if err := c.close(); err != nil {
			return nil, err
		}
		o.recordRaw("setup_s", "s", d.Seconds())
		o.record("setup_s", "s", cal.seconds(d))
	}
	if e.trace {
		return campaignTraced(e, o)
	}
	// The cycles' figures are not calibrated (see calibrate.go): the
	// campaign's short specs stay in the host's caches, and on the
	// reference host the raw figures were the steadier ones.
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < e.seconds; n++ {
		c, _, err := setUpCampaign(e, nil)
		if err != nil {
			return nil, err
		}
		cold, resumes, err := c.cycle(e, resumeRounds, nil)
		if err == nil {
			retired, cycles := c.check(o, cold, resumes)
			o.record("pipe_mips", "MIPS", float64(retired)/cold.sweep.Seconds()/1e6)
			o.record("campaign_s", "s", cold.wall.Seconds())
			for _, r := range resumes {
				o.record("resume_s", "s", r.wall.Seconds())
			}
			o.record("sim_cycles", "cycles", float64(cycles))
		}
		if err := errors.Join(err, c.close()); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.record("peak_rss_mb", "MB", rss)
	return o, nil
}

// campaignTraced runs one cycle with a span around each phase-level call,
// then replays the spec list with a span around every layer call, then
// measures allocations in a serial pass.
func campaignTraced(e *env, o *outcome) (*outcome, error) {
	tr := newTracer()
	c, _, err := setUpCampaign(e, tr)
	if err != nil {
		return nil, err
	}
	rep, err := c.traced(e, o, tr)
	if err := errors.Join(err, c.close()); err != nil {
		return nil, err
	}
	rep.Layers, rep.OtherS = tr.summary()
	o.layers, o.spans = rep, tr
	return o, nil
}

func (c *campaign) traced(e *env, o *outcome, tr *tracer) (*layerReport, error) {
	cold, resumes, err := c.cycle(e, 1, tr)
	if err != nil {
		return nil, err
	}
	retired, cycles := c.check(o, cold, resumes)
	resume := resumes[0]
	rep := &layerReport{
		UntracedS:     cold.sweep.Seconds(),
		Specs:         len(c.specs),
		HarnessAlloc:  cold.alloc,
		GCCycles:      cold.gcCycles,
		Store:         addStoreMetrics(cold.store, resume.store),
		JournalEvents: c.jr.Events(),
		JournalDrops:  c.jr.Dropped(),
	}
	var sizes [3]int64
	for i, path := range []string{filepath.Join(c.dir, "store"), c.jr.Path(), cold.doc} {
		if sizes[i], err = diskBytes(path); err != nil {
			return nil, err
		}
	}
	rep.StoreBytes, rep.JournalBytes, rep.ExportBytes = sizes[0], sizes[1], sizes[2]
	if err := c.replay(e, tr, rep); err != nil {
		return nil, err
	}
	if rep.Counts.Retired != retired || rep.Counts.Cycles != cycles {
		o.fail("replay: retired %d, cycles %d; the sweep gave %d and %d", rep.Counts.Retired, rep.Counts.Cycles, retired, cycles)
	}
	for _, rs := range c.specs {
		s, _ := workload.ByName(rs.Workload)
		err := rep.Alloc.measure(rs.Config, func() (*prog.Program, *mem.Memory, error) { return s.Build(rs.Variant, campaignN(s)) })
		if err != nil {
			return nil, fmt.Errorf("allocations of %s: %w", rs.Key(), err)
		}
	}
	return rep, nil
}

// replay runs the spec list on e.jobs workers through the public calls
// Runner.simulate makes (Build, Clone, the emulator pre-run of perfect
// specs, pipeline.New, Run, VerifyArch), then stores each {spec,result}
// payload in a fresh store with Put and reads it back with Get, with a
// span around each call.
func (c *campaign) replay(e *env, tr *tracer, rep *layerReport) error {
	st, err := harness.OpenStore(filepath.Join(c.dir, "replay-store"))
	if err != nil {
		return err
	}
	var (
		cnt      lockedCounts
		emuInstr atomic.Uint64
		next     atomic.Int64
		errs     = make([]error, len(c.specs))
		wg       sync.WaitGroup
	)
	win := tr.begin(spanWindow, -1, -1)
	t0 := time.Now()
	for w := 0; w < e.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.specs) {
					return
				}
				sid := tr.begin(spanSpec, win, i)
				errs[i] = replayOne(c.specs[i], st, tr, sid, i, &cnt, &emuInstr)
				tr.end(sid)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	tr.end(win)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var busy time.Duration
	for _, d := range tr.durations(spanSpec) {
		busy += d
		rep.SpecMs = append(rep.SpecMs, float64(d)/float64(time.Millisecond))
	}
	rep.Counts = cnt.c
	rep.EmuInstr = emuInstr.Load()
	rep.TracedS = wall.Seconds()
	rep.BusyFrac = busy.Seconds() / (wall.Seconds() * float64(e.jobs))
	return nil
}

// storedRun has the layout of the harness's store payload for a
// successful run.
type storedRun struct {
	Spec   harness.RunSpec `json:"spec"`
	Result *harness.Result `json:"result,omitempty"`
}

func replayOne(rs harness.RunSpec, st *store.Store, tr *tracer, parent, req int, cnt *lockedCounts, emuInstr *atomic.Uint64) error {
	var key string
	timed(tr, "manifest.key", parent, req, func() { key = rs.Key() })
	s, ok := workload.ByName(rs.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", rs.Workload)
	}
	n := campaignN(s)
	var (
		p       *prog.Program
		m, init *mem.Memory
		core    *pipeline.Core
		err     error
		opts    []pipeline.Option
	)
	timed(tr, "workload.build", parent, req, func() { p, m, err = s.Build(rs.Variant, n) })
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if rs.PerfectAll || rs.PerfectCFD {
		perfect := map[uint64]bool{}
		if rs.PerfectCFD {
			for _, pc := range workload.SeparablePCs(p) {
				perfect[pc] = true
			}
		}
		oracle := pipeline.NewOracle()
		var om *mem.Memory
		timed(tr, "mem.clone", parent, req, func() { om = m.Clone() })
		em := emu.New(p, om, emu.WithTracer(emu.TracerFunc(func(ev emu.Event) {
			if ev.Inst.Op.IsCondBranch() && (rs.PerfectAll || perfect[ev.PC]) {
				oracle.Record(ev.PC, ev.Taken)
			}
		})))
		timed(tr, "emu.oracle", parent, req, func() { err = em.Run(500_000_000) })
		if err != nil {
			return fmt.Errorf("%s: oracle pre-run: %w", key, err)
		}
		emuInstr.Add(em.Retired)
		opts = append(opts, pipeline.WithOracle(oracle))
		if rs.PerfectAll {
			opts = append(opts, pipeline.WithPerfectBP())
		}
	}
	timed(tr, "mem.clone", parent, req, func() { init = m.Clone() })
	cfg := rs.Config
	cfg.Cache.SampleMSHRs = rs.SampleMSHR
	timed(tr, "pipeline.new", parent, req, func() { core, err = pipeline.New(cfg, p, m, opts...) })
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	timed(tr, "pipeline.run", parent, req, func() { err = core.Run(0) })
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	timed(tr, "emu.verify", parent, req, func() {
		err = emu.VerifyArch(p, init, core.ArchRegs(), core.Mem(), core.Stats.Retired,
			emu.WithQueueSizes(cfg.BQSize, cfg.VQSize, cfg.TQSize))
	})
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	emuInstr.Add(core.Stats.Retired)
	cnt.add(core)

	skey := fmt.Sprintf("%s|n=%d", key, n)
	timed(tr, "store.put", parent, req, func() {
		var payload []byte
		if payload, err = json.Marshal(storedRun{Spec: rs, Result: result(rs, core)}); err == nil {
			err = st.Put(skey, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	var back storedRun
	timed(tr, "store.get", parent, req, func() {
		payload, hit, gerr := st.Get(skey)
		switch {
		case gerr != nil:
			err = gerr
		case !hit:
			err = errors.New("store: entry missing after Put")
		default:
			err = json.Unmarshal(payload, &back)
		}
	})
	if err == nil && (back.Result == nil || back.Result.Stats.Cycles != core.Stats.Cycles) {
		err = errors.New("store: entry read back differs from the one written")
	}
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// result assembles the harness result of a finished run, as
// Runner.simulate does.
func result(rs harness.RunSpec, core *pipeline.Core) *harness.Result {
	events := make(map[string]uint64)
	for e := 0; e < energy.NumEvents; e++ {
		if n := core.Meter.Counts[e]; n != 0 {
			events[energy.Event(e).String()] = n
		}
	}
	return &harness.Result{
		Spec:          rs,
		Stats:         core.Stats,
		EnergyTotal:   core.Meter.Total(),
		EnergyDynamic: core.Meter.Dynamic(),
		EnergyLeakage: core.Meter.Leakage(),
		EnergyQueue:   core.Meter.QueueEnergy(),
		EnergyEvents:  events,
		MSHRHist:      core.Hierarchy().Hist,
	}
}

func addStoreMetrics(a, b store.Metrics) store.Metrics {
	return store.Metrics{
		Hits:        a.Hits + b.Hits,
		Misses:      a.Misses + b.Misses,
		Puts:        a.Puts + b.Puts,
		Quarantines: a.Quarantines + b.Quarantines,
		Retries:     a.Retries + b.Retries,
		PutFailures: a.PutFailures + b.PutFailures,
		GetFailures: a.GetFailures + b.GetFailures,
	}
}

// diskBytes returns the size of a file, or of every file under a
// directory.
func diskBytes(path string) (int64, error) {
	var total int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
