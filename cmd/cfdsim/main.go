// Command cfdsim runs one workload variant on the cycle-level CFD core and
// prints its statistics.
//
// Usage:
//
//	cfdsim -workload soplexlike -variant cfd [-n 50000] [-window 168]
//	       [-depth 10] [-bqmiss spec|stall] [-dump-asm] [-branches]
//	       [-pipeview N] [-verify] [-json out.json] [-journal run.journal]
//	       [-sample-every N] [-trace-out trace.json] [-trace-start N] [-trace-limit N]
//	       [-max-cycles N] [-deadline 30s]
//	cfdsim -classify [-workload soplexlike]
//	cfdsim -inject 200 [-seed 1] [-json report.json]
//	cfdsim -inject-store 30 [-seed 1] [-json report.json]
//
// -classify prints the §II-B separability taxonomy for each kernel-shaped
// workload: the hard branch's class and, per pass-pipeline transform, the
// accept/reject verdict with the rejection reason. Workloads without a
// kernel form (the classification-study set) are listed as hand-built.
//
// -sample-every N attaches an interval sampler: IPC, MPKI, stall fractions,
// and BQ/VQ/TQ occupancy are recorded every N cycles, full-run occupancy
// histograms are printed, and the -json document carries the series under
// its timeseries/occupancy sections.
//
// -trace-out writes a Chrome trace-event JSON (load it in ui.perfetto.dev
// or chrome://tracing): one span per pipeline stage per traced instruction,
// plus counter tracks from the sampler when -sample-every is on. The window
// flags bound the capture: -trace-start skips that many instructions, then
// -trace-limit instructions are recorded.
//
// -max-cycles and -deadline arm a watchdog on the simulation: when the
// cycle budget or wall-clock deadline expires, the run stops with a typed
// watchdog fault and a machine-state dump instead of hanging. A run that
// ends in a fault still writes the -json document, with the fault recorded
// in its faults section.
//
// -inject runs a seeded fault-injection campaign instead of a simulation:
// N corruptions of live architectural queue state and save/restore images,
// each of which must be caught by a typed fault, a watchdog, or the
// golden-model differential check. The exit status is nonzero if any
// injection goes undetected.
//
// -inject-store is the same contract for the persistent result store: N
// corruptions of on-disk entries (torn writes, bit flips, truncation, stale
// schema versions, stripped checksums), each of which must be quarantined —
// never served — with the damaged sweep transparently re-simulating and
// converging back to the golden results.
//
// Besides the headline counters it prints the CPI stack: every simulated
// cycle attributed to exactly one bucket (retiring, CFD instruction
// overhead, fetch/BQ/TQ stalls, misprediction recovery split by the memory
// level that fed the branch, memory stalls by service level, backend), so
// the buckets sum exactly to the cycle count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/energy"
	"cfd/internal/export"
	"cfd/internal/fault"
	"cfd/internal/faultinject"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
	"cfd/internal/stats"
	"cfd/internal/workload"
	"cfd/internal/xform"
)

// occupancyChart renders one queue's full-run occupancy histogram as an
// ASCII bar chart, coarsened to at most nine depth bins so a 128-entry
// queue stays readable.
func occupancyChart(title string, q obs.QueueOccupancy) string {
	const bins = 8
	labels := []string{"0"}
	var v0 uint64
	if len(q.Counts) > 0 {
		v0 = q.Counts[0]
	}
	values := []uint64{v0}
	step := (q.Size + bins - 1) / bins
	if step < 1 {
		step = 1
	}
	for lo := 1; lo <= q.Size; lo += step {
		hi := lo + step - 1
		if hi > q.Size {
			hi = q.Size
		}
		var sum uint64
		for i := lo; i <= hi && i < len(q.Counts); i++ {
			sum += q.Counts[i]
		}
		if lo == hi {
			labels = append(labels, fmt.Sprintf("%d", lo))
		} else {
			labels = append(labels, fmt.Sprintf("%d-%d", lo, hi))
		}
		values = append(values, sum)
	}
	return stats.Histogram(fmt.Sprintf("%s (mean %.1f, max %d)", title, q.Mean, q.Max),
		labels, values)
}

func main() {
	var (
		name        = flag.String("workload", "soplexlike", "workload name (see -list)")
		variant     = flag.String("variant", "base", "variant: base, cfd, cfd+, dfd, cfd+dfd, cfdtq, cfdbq, cfdbqtq")
		n           = flag.Int64("n", 0, "input size in work items (0 = workload default)")
		window      = flag.Int("window", 168, "ROB size (168 = paper baseline; larger windows scale IQ/LQ/SQ)")
		depth       = flag.Int("depth", 10, "minimum fetch-to-execute latency in cycles")
		bqmiss      = flag.String("bqmiss", "spec", "BQ miss policy: spec (speculative pop) or stall")
		list        = flag.Bool("list", false, "list workloads and variants")
		classify    = flag.Bool("classify", false, "print each kernel's separability class and per-transform accept/reject reasons")
		dumpAsm     = flag.Bool("dump-asm", false, "print the program disassembly and exit")
		branches    = flag.Bool("branches", false, "print per-static-branch statistics")
		pipeview    = flag.Int("pipeview", 0, "trace N instructions and print a pipeline diagram")
		verify      = flag.Bool("verify", false, "cross-check the retired state against the functional emulator")
		jsonPath    = flag.String("json", "", "write the run's counters, CPI stack, and energy as JSON to this path ('-' = stdout)")
		journalPath = flag.String("journal", "", "write a structured JSONL event journal of the run to this path")

		maxCycles   = flag.Uint64("max-cycles", 0, "watchdog cycle budget for the run (0 = unlimited)")
		deadline    = flag.Duration("deadline", 0, "watchdog wall-clock deadline for the run (0 = none)")
		inject      = flag.Int("inject", 0, "run a fault-injection campaign of N corruptions instead of a simulation")
		injectStore = flag.Int("inject-store", 0, "run a result-store corruption campaign of N corruptions instead of a simulation")
		seed        = flag.Int64("seed", 1, "fault-injection campaign seed")

		sampleEvery = flag.Uint64("sample-every", 0, "sample IPC/stall/queue-occupancy telemetry every N cycles (0 = off)")
		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace of the run to this path ('-' = stdout)")
		traceStart  = flag.Int("trace-start", 0, "skip N instructions before the trace window opens")
		traceLimit  = flag.Int("trace-limit", 512, "trace window length in instructions (with -trace-out)")
	)
	flag.Parse()

	if *inject > 0 {
		runCampaign(*inject, *seed, *jsonPath)
		return
	}
	if *injectStore > 0 {
		runStoreCampaign(*injectStore, *seed, *jsonPath)
		return
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-16s %-40s variants=%v defaultN=%d\n", s.Name, s.Analog, s.Variants, s.DefaultN)
		}
		return
	}

	if *classify {
		only := ""
		if isFlagSet("workload") {
			only = *name
		}
		runClassify(only)
		return
	}

	s, ok := workload.ByName(*name)
	if !ok {
		fatalf("unknown workload %q (use -list)", *name)
	}
	size := *n
	if size == 0 {
		size = s.DefaultN
	}
	p, m, err := s.Build(workload.Variant(*variant), size)
	if err != nil {
		fatalf("%v", err)
	}
	if *dumpAsm {
		fmt.Print(p.Disassemble())
		return
	}

	cfg := config.Scaled(*window).WithDepth(*depth)
	if *bqmiss == "stall" {
		cfg.BQMissPolicy = config.StallFetch
	}
	var popts []pipeline.Option
	switch {
	case *traceOut != "":
		// A Perfetto trace wants steady state, so it gets the windowed
		// capture; Pipeview renders from the same window when both are on.
		popts = append(popts, pipeline.WithTraceWindow(*traceStart, *traceLimit))
	case *pipeview > 0:
		popts = append(popts, pipeline.WithTrace(*pipeview))
	}
	if *sampleEvery > 0 {
		popts = append(popts, pipeline.WithObserver(
			obs.NewObserver(*sampleEvery, cfg.BQSize, cfg.VQSize, cfg.TQSize)))
	}
	if *maxCycles > 0 || *deadline > 0 {
		popts = append(popts, pipeline.WithWatchdog(fault.WithTimeout(*maxCycles, *deadline)))
	}
	var init = m
	if *verify {
		init = m.Clone()
	}
	core, err := pipeline.New(cfg, p, m, popts...)
	if err != nil {
		fatalf("%v", err)
	}
	if err := core.Run(0); err != nil {
		// A faulting run still produces the JSON document, with the
		// failure recorded as a structured fault.
		if *jsonPath != "" {
			spec := harness.RunSpec{Workload: s.Name, Variant: workload.Variant(*variant), Config: cfg}
			doc := &export.Document{
				Schema: export.Schema, Version: export.Version, Tool: "cfdsim",
				Scale: 1, Verify: *verify,
				Faults: []export.FaultRecord{export.FromFailure(harness.Failure{Spec: spec, Err: err})},
			}
			if werr := export.WriteFile(*jsonPath, doc); werr != nil {
				fmt.Fprintf(os.Stderr, "cfdsim: %v\n", werr)
			}
		}
		// A faulted run's partial trace is still written: the last traced
		// instructions usually show what wedged.
		if *traceOut != "" {
			core.FinishObservation()
			if werr := core.PerfettoTrace().WriteFile(*traceOut); werr != nil {
				fmt.Fprintf(os.Stderr, "cfdsim: %v\n", werr)
			}
		}
		if *journalPath != "" {
			spec := harness.RunSpec{Workload: s.Name, Variant: workload.Variant(*variant), Config: cfg}
			if werr := writeRunJournal(*journalPath, spec, 0, 0, err); werr != nil {
				fmt.Fprintf(os.Stderr, "cfdsim: %v\n", werr)
			}
		}
		if f, ok := fault.As(err); ok {
			fmt.Fprint(os.Stderr, f.Dump())
			os.Exit(1)
		}
		fatalf("%v", err)
	}
	core.FinishObservation()
	if *verify {
		if err := emu.VerifyArch(p, init, core.ArchRegs(), core.Mem(), core.Stats.Retired,
			emu.WithQueueSizes(cfg.BQSize, cfg.VQSize, cfg.TQSize)); err != nil {
			fatalf("differential verification failed: %v", err)
		}
		fmt.Println("verify          OK (retired state matches the functional emulator)")
	}

	st := core.Stats
	fmt.Printf("workload        %s/%s (n=%d) on %s\n", s.Name, *variant, size, cfg.Name)
	fmt.Printf("cycles          %d\n", st.Cycles)
	fmt.Printf("retired         %d (IPC %.3f)\n", st.Retired, st.IPC())
	fmt.Printf("fetched         %d (wrong-path %d)\n", st.Fetched, st.Fetched-st.Retired)
	fmt.Printf("cond branches   %d, mispredicts %d (MPKI %.2f)\n", st.CondBranches, st.Mispredicts, st.MPKI())
	fmt.Printf("recoveries      %d resolve-time, %d retire-time\n", st.Recoveries, st.RetireRecoveries)
	fmt.Printf("BQ              pops %d (fetch-resolved %d, spec %d, late mispredict %d)\n",
		st.BQPops, st.BQResolvedAtFetch, st.BQMisses, st.BQLateMispredict)
	fmt.Printf("BQ stalls       full %d cycles, miss %d cycles\n", st.BQFullStalls, st.BQMissStalls)
	fmt.Printf("TQ              pops %d, TCR branches %d, miss stalls %d cycles\n",
		st.TQPops, st.TCRBranches, st.TQMissStalls)
	fmt.Printf("mispred levels  NoData %d, L1 %d, L2 %d, L3 %d, MEM %d\n",
		st.MispredByLevel[0], st.MispredByLevel[1], st.MispredByLevel[2],
		st.MispredByLevel[3], st.MispredByLevel[4])
	fmt.Printf("energy          %.0f pJ total (%.0f dynamic, %.0f queue structures)\n",
		core.Meter.Total(), core.Meter.Dynamic(), core.Meter.QueueEnergy())

	fmt.Println()
	if err := st.CPI.Check(st.Cycles); err != nil {
		fatalf("%v", err)
	}
	fmt.Println(st.CPI.Render("CPI stack (cycle attribution)", st.Retired))

	if o := core.Observer(); o != nil {
		fmt.Printf("telemetry       %d samples every %d cycles\n\n", len(o.Samples), o.Every)
		if occ := o.Occupancy(); occ != nil {
			fmt.Print(occupancyChart("BQ occupancy", occ.BQ))
			fmt.Print(occupancyChart("VQ occupancy", occ.VQ))
			fmt.Print(occupancyChart("TQ occupancy", occ.TQ))
		}
	}

	if *jsonPath != "" {
		events := make(map[string]uint64)
		for e := 0; e < energy.NumEvents; e++ {
			if n := core.Meter.Counts[e]; n != 0 {
				events[energy.Event(e).String()] = n
			}
		}
		res := &harness.Result{
			Spec: harness.RunSpec{Workload: s.Name, Variant: workload.Variant(*variant),
				Config: cfg, SampleEvery: *sampleEvery},
			Stats:         st,
			EnergyTotal:   core.Meter.Total(),
			EnergyDynamic: core.Meter.Dynamic(),
			EnergyLeakage: core.Meter.Leakage(),
			EnergyQueue:   core.Meter.QueueEnergy(),
			EnergyEvents:  events,
			MSHRHist:      core.Hierarchy().Hist,
			Timeseries:    core.Observer().Timeseries(),
			Occupancy:     core.Observer().Occupancy(),
		}
		doc := &export.Document{
			Schema: export.Schema, Version: export.Version, Tool: "cfdsim",
			Scale: 1, Verify: *verify,
			Runs: []export.Run{export.FromResult(res)},
		}
		if err := export.WriteFile(*jsonPath, doc); err != nil {
			fatalf("%v", err)
		}
	}
	if *traceOut != "" {
		if err := core.PerfettoTrace().WriteFile(*traceOut); err != nil {
			fatalf("%v", err)
		}
	}
	if *journalPath != "" {
		spec := harness.RunSpec{Workload: s.Name, Variant: workload.Variant(*variant),
			Config: cfg, SampleEvery: *sampleEvery}
		if err := writeRunJournal(*journalPath, spec, st.Cycles, st.Retired, nil); err != nil {
			fatalf("%v", err)
		}
	}

	if *branches {
		fmt.Println("\nper-branch statistics (retired):")
		pcs := make([]uint64, 0, len(st.PerBranch))
		for pc := range st.PerBranch {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool {
			return st.PerBranch[pcs[i]].Mispredicts > st.PerBranch[pcs[j]].Mispredicts
		})
		for _, pc := range pcs {
			bs := st.PerBranch[pc]
			name := p.At(pc).String()
			if note, ok := p.Notes[pc]; ok {
				name = note.Name
			}
			fmt.Printf("  pc %-6d %-40s execs %-9d taken %5.1f%%  missrate %5.2f%%\n",
				pc, name, bs.Execs,
				100*float64(bs.Taken)/float64(bs.Execs),
				100*float64(bs.Mispredicts)/float64(bs.Execs))
		}
	}
	if *pipeview > 0 {
		fmt.Println()
		fmt.Print(core.Pipeview())
	}
}

// runCampaign executes the seeded fault-injection campaign, prints the
// summary, optionally writes the cfd-faultinject JSON report, and exits
// nonzero when any injection went undetected.
func runCampaign(n int, seed int64, jsonPath string) {
	rep, err := faultinject.Run(faultinject.Config{Seed: seed, Injections: n})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("fault injection  seed %d: %d injected, %d detected, %d missed (%d draws skipped)\n",
		rep.Seed, rep.Injected, rep.Detected, rep.Missed, rep.Skipped)
	for _, site := range faultinject.AllSites {
		if st := rep.BySite[site]; st != nil {
			fmt.Printf("  %-12s injected %4d  detected %4d  missed %4d\n",
				site, st.Injected, st.Detected, st.Missed)
		}
	}
	finishCampaign(rep, n, jsonPath)
}

// runStoreCampaign executes the result-store corruption campaign: seeded
// on-disk damage (torn writes, bit flips, truncation, stale schemas,
// stripped checksums) to a populated store, each of which must be caught by
// quarantine with the damaged sweep converging back to the golden results.
// Exit status is nonzero when any corruption goes undetected.
func runStoreCampaign(n int, seed int64, jsonPath string) {
	rep, err := faultinject.RunStore(faultinject.StoreConfig{Seed: seed, Injections: n})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("store corruption  seed %d: %d injected, %d detected, %d missed\n",
		rep.Seed, rep.Injected, rep.Detected, rep.Missed)
	for _, site := range faultinject.AllStoreSites {
		if st := rep.BySite[site]; st != nil {
			fmt.Printf("  %-22s injected %4d  detected %4d  missed %4d\n",
				site, st.Injected, st.Detected, st.Missed)
		}
	}
	finishCampaign(rep, n, jsonPath)
}

// finishCampaign writes the optional cfd-faultinject JSON report and exits
// nonzero when any injection was missed or the campaign under-ran.
func finishCampaign(rep *faultinject.Report, n int, jsonPath string) {
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		data = append(data, '\n')
		if jsonPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if rep.Missed > 0 {
		for _, tr := range rep.Trials {
			if tr.Outcome == faultinject.OutcomeMissed {
				fmt.Fprintf(os.Stderr, "cfdsim: MISSED %s on %s at step %d: %s\n",
					tr.Site, tr.Victim, tr.Step, tr.Detail)
			}
		}
		os.Exit(1)
	}
	if rep.Injected < n {
		fatalf("only %d of %d requested injections applied", rep.Injected, n)
	}
}

// writeRunJournal records a single-run journal: the header, one
// spec_done carrying the run's outcome, and the trailer — the
// cfdsim-sized slice of the cfd-journal schema, validatable with the
// same `go run ./internal/obs/validate` tool as a sweep journal.
func writeRunJournal(path string, spec harness.RunSpec, cycles, retired uint64, runErr error) error {
	j, err := journal.Open(path, "cfdsim")
	if err != nil {
		return err
	}
	ev := journal.Event{
		Type: journal.SpecDone, Key: spec.Key(),
		Workload: spec.Workload, Variant: string(spec.Variant), Config: spec.Config.Name,
	}
	if runErr == nil {
		ev.Status = "ok"
		ev.Cycles = cycles
		ev.Retired = retired
		if cycles > 0 {
			ev.IPC = float64(retired) / float64(cycles)
		}
	} else {
		ev.Status = "fault"
		ev.Error = runErr.Error()
		if f, ok := fault.As(runErr); ok {
			ev.Fault = f.Kind.String()
		}
	}
	j.Emit(ev)
	return j.Close()
}

// isFlagSet reports whether the named flag was given on the command line.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runClassify prints the §II-B taxonomy: for every kernel-shaped workload
// (or just the named one), the hard branch's separability class and, for
// each pass-pipeline transform, whether the kernel is accepted or why it
// is rejected. Workloads that still hand-build their programs (the
// classification-study set) have no kernel form to analyze.
func runClassify(only string) {
	found := false
	for _, s := range workload.All() {
		if only != "" && s.Name != only {
			continue
		}
		found = true
		if s.Kernel == nil {
			fmt.Printf("%-16s hand-built (no kernel form; class %v)\n\n", s.Name, s.Class)
			continue
		}
		f, _, err := s.Kernel(s.TestN)
		if err != nil {
			fatalf("%s: kernel: %v", s.Name, err)
		}
		cls, clsErr := f.Classify()
		fmt.Printf("%-16s class %v", s.Name, cls)
		if clsErr != nil {
			fmt.Printf(" (%v)", clsErr)
		}
		fmt.Println()
		for _, st := range xform.Acceptance(f, xform.DefaultParams()) {
			if st.Err == nil {
				fmt.Printf("  %-9s accept\n", st.Transform)
			} else {
				fmt.Printf("  %-9s reject — %v\n", st.Transform, st.Err)
			}
		}
		fmt.Println()
	}
	if !found {
		fatalf("unknown workload %q (use -list)", only)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cfdsim: "+format+"\n", args...)
	os.Exit(1)
}
