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
// -json - or -trace-out - writes that document to stdout, and everything
// else the run prints (the statistics, -branches, -pipeview, the -inject and
// -inject-store reports) then goes to stderr, so stdout holds exactly one
// parseable document. The two cannot share stdout.
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
	"io"
	"os"
	"sort"

	"cfd/internal/config"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so tests can drive
// the command end to end. It returns 0 on success, 1 on a failed run or
// campaign, and 2 on bad usage.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name        = fs.String("workload", "soplexlike", "workload name (see -list)")
		variant     = fs.String("variant", "base", "variant: base, cfd, cfd+, dfd, cfd+dfd, cfdtq, cfdbq, cfdbqtq, ifconvert")
		n           = fs.Int64("n", 0, "input size in work items (0 = workload default)")
		window      = fs.Int("window", 168, "ROB size (168 = paper baseline; larger windows scale IQ/LQ/SQ)")
		depth       = fs.Int("depth", 10, "minimum fetch-to-execute latency in cycles")
		bqmiss      = fs.String("bqmiss", "spec", "BQ miss policy: spec (speculative pop) or stall")
		list        = fs.Bool("list", false, "list workloads and variants")
		classify    = fs.Bool("classify", false, "print each kernel's separability class and per-transform accept/reject reasons")
		dumpAsm     = fs.Bool("dump-asm", false, "print the program disassembly and exit")
		branches    = fs.Bool("branches", false, "print per-static-branch statistics")
		pipeview    = fs.Int("pipeview", 0, "trace N instructions and print a pipeline diagram")
		verify      = fs.Bool("verify", false, "cross-check the retired state against the functional emulator")
		jsonPath    = fs.String("json", "", "write the run's counters, CPI stack, and energy as JSON to this path ('-' = stdout)")
		journalPath = fs.String("journal", "", "write a structured JSONL event journal of the run to this path")

		maxCycles   = fs.Uint64("max-cycles", 0, "watchdog cycle budget for the run (0 = unlimited)")
		deadline    = fs.Duration("deadline", 0, "watchdog wall-clock deadline for the run (0 = none)")
		inject      = fs.Int("inject", 0, "run a fault-injection campaign of N corruptions instead of a simulation")
		injectStore = fs.Int("inject-store", 0, "run a result-store corruption campaign of N corruptions instead of a simulation")
		seed        = fs.Int64("seed", 1, "fault-injection campaign seed")

		sampleEvery = fs.Uint64("sample-every", 0, "sample IPC/stall/queue-occupancy telemetry every N cycles (0 = off)")
		traceOut    = fs.String("trace-out", "", "write a Chrome/Perfetto trace of the run to this path ('-' = stdout)")
		traceStart  = fs.Int("trace-start", 0, "skip N instructions before the trace window opens")
		traceLimit  = fs.Int("trace-limit", 512, "trace window length in instructions (with -trace-out)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *jsonPath == "-" && *traceOut == "-" {
		fmt.Fprintln(stderr, "cfdsim: -json - and -trace-out - cannot share stdout")
		return 2
	}
	// report takes what the run prints for a reader, so a document written
	// to stdout is all that stdout holds.
	report := stdout
	if *jsonPath == "-" || *traceOut == "-" {
		report = stderr
	}

	if *inject > 0 {
		return runCampaign(report, stdout, stderr, *inject, *seed, *jsonPath)
	}
	if *injectStore > 0 {
		return runStoreCampaign(report, stdout, stderr, *injectStore, *seed, *jsonPath)
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Fprintf(stdout, "%-16s %-40s variants=%v defaultN=%d\n", s.Name, s.Analog, s.Variants, s.DefaultN)
		}
		return 0
	}

	if *classify {
		only := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				only = *name
			}
		})
		return runClassify(stdout, stderr, only)
	}

	s, ok := workload.ByName(*name)
	if !ok {
		return fatalf(stderr, "unknown workload %q (use -list)", *name)
	}
	size := *n
	if size == 0 {
		size = s.DefaultN
	}
	cfg := config.Scaled(*window).WithDepth(*depth)
	if *bqmiss == "stall" {
		cfg.BQMissPolicy = config.StallFetch
	}
	rs := harness.RunSpec{Workload: s.Name, Variant: workload.Variant(*variant), Config: cfg, SampleEvery: *sampleEvery}
	b, err := harness.NewBuild(rs, size)
	if *dumpAsm {
		if err != nil {
			return fatalf(stderr, "%v", err)
		}
		fmt.Fprint(stdout, b.Program().Disassemble())
		return 0
	}

	// A Perfetto trace wants steady state, so it gets the windowed
	// capture; Pipeview renders from the same window when both are on.
	start, limit := *traceStart, *traceLimit
	if *traceOut == "" {
		start, limit = 0, *pipeview
	}
	var extra []pipeline.Option
	if limit > 0 {
		extra = append(extra, pipeline.WithTraceWindow(start, limit))
	}
	var wd *fault.Watchdog
	if *maxCycles > 0 || *deadline > 0 {
		wd = fault.WithTimeout(*maxCycles, *deadline)
	}
	var (
		res  *harness.Result
		core *pipeline.Core
	)
	if err == nil {
		res, core, err = harness.Simulate(rs, b, *verify, wd, extra...)
	}
	if err == nil {
		if *verify {
			fmt.Fprintln(report, "verify          OK (retired state matches the functional emulator)")
		}

		st := res.Stats
		fmt.Fprintf(report, "workload        %s/%s (n=%d) on %s\n", s.Name, *variant, size, cfg.Name)
		fmt.Fprintf(report, "cycles          %d\n", st.Cycles)
		fmt.Fprintf(report, "retired         %d (IPC %.3f)\n", st.Retired, st.IPC())
		fmt.Fprintf(report, "fetched         %d (wrong-path %d)\n", st.Fetched, st.Fetched-st.Retired)
		fmt.Fprintf(report, "cond branches   %d, mispredicts %d (MPKI %.2f)\n", st.CondBranches, st.Mispredicts, st.MPKI())
		fmt.Fprintf(report, "recoveries      %d resolve-time, %d retire-time\n", st.Recoveries, st.RetireRecoveries)
		fmt.Fprintf(report, "BQ              pops %d (fetch-resolved %d, spec %d, late mispredict %d)\n",
			st.BQPops, st.BQResolvedAtFetch, st.BQMisses, st.BQLateMispredict)
		fmt.Fprintf(report, "BQ stalls       full %d cycles, miss %d cycles\n", st.BQFullStalls, st.BQMissStalls)
		fmt.Fprintf(report, "TQ              pops %d, TCR branches %d, miss stalls %d cycles\n",
			st.TQPops, st.TCRBranches, st.TQMissStalls)
		fmt.Fprintf(report, "mispred levels  NoData %d, L1 %d, L2 %d, L3 %d, MEM %d\n",
			st.MispredByLevel[0], st.MispredByLevel[1], st.MispredByLevel[2],
			st.MispredByLevel[3], st.MispredByLevel[4])
		fmt.Fprintf(report, "energy          %.0f pJ total (%.0f dynamic, %.0f queue structures)\n",
			res.EnergyTotal, res.EnergyDynamic, res.EnergyQueue)

		fmt.Fprintln(report)
		if cerr := st.CPI.Check(st.Cycles); cerr != nil {
			return fatalf(stderr, "%v", cerr)
		}
		fmt.Fprintln(report, st.CPI.Render("CPI stack (cycle attribution)", st.Retired))

		if o := core.Observer(); o != nil {
			fmt.Fprintf(report, "telemetry       %d samples every %d cycles\n\n", len(o.Samples), o.Every)
			if occ := o.Occupancy(); occ != nil {
				fmt.Fprint(report, occupancyChart("BQ occupancy", occ.BQ))
				fmt.Fprint(report, occupancyChart("VQ occupancy", occ.VQ))
				fmt.Fprint(report, occupancyChart("TQ occupancy", occ.TQ))
			}
		}
	}

	// The artifacts are written for a failed run too: the failure lands in
	// the document's faults section and in the journal, and the last
	// traced instructions usually show what wedged.
	code := 0
	if *jsonPath != "" {
		doc := &export.Document{
			Schema: export.Schema, Version: export.Version, Tool: "cfdsim",
			Scale: 1, Verify: *verify,
		}
		if err != nil {
			doc.Faults = []export.FaultRecord{export.FromFailure(harness.Failure{Spec: rs, Err: err})}
		} else {
			doc.Runs = []export.Run{export.FromResult(res)}
		}
		if werr := writeArtifact(stdout, *jsonPath,
			func(w io.Writer) error { return export.Encode(w, doc) },
			func(path string) error { return export.WriteFile(path, doc) }); werr != nil {
			code = fatalf(stderr, "%v", werr)
		}
	}
	if *traceOut != "" && core != nil {
		tr := core.PerfettoTrace()
		if werr := writeArtifact(stdout, *traceOut, tr.Encode, tr.WriteFile); werr != nil {
			code = fatalf(stderr, "%v", werr)
		}
	}
	if *journalPath != "" {
		if werr := writeRunJournal(*journalPath, rs, res, err); werr != nil {
			code = fatalf(stderr, "%v", werr)
		}
	}
	if f, ok := fault.As(err); ok {
		fmt.Fprint(stderr, f.Dump())
		return 1
	}
	if err != nil {
		return fatalf(stderr, "%v", err)
	}
	if code != 0 {
		return code
	}

	if *branches {
		fmt.Fprintln(report, "\nper-branch statistics (retired):")
		br := res.Stats.PerBranch
		pcs := make([]uint64, 0, len(br))
		for pc := range br {
			pcs = append(pcs, pc)
		}
		// Most mispredicted first; ties in PC order, so the listing does
		// not depend on map iteration order.
		sort.Slice(pcs, func(i, j int) bool {
			if mi, mj := br[pcs[i]].Mispredicts, br[pcs[j]].Mispredicts; mi != mj {
				return mi > mj
			}
			return pcs[i] < pcs[j]
		})
		p := core.Program()
		for _, pc := range pcs {
			bs := br[pc]
			name := p.At(pc).String()
			if note, ok := p.Notes[pc]; ok {
				name = note.Name
			}
			fmt.Fprintf(report, "  pc %-6d %-40s execs %-9d taken %5.1f%%  missrate %5.2f%%\n",
				pc, name, bs.Execs,
				100*float64(bs.Taken)/float64(bs.Execs),
				100*float64(bs.Mispredicts)/float64(bs.Execs))
		}
	}
	if *pipeview > 0 {
		fmt.Fprintln(report)
		fmt.Fprint(report, core.Pipeview())
	}
	return 0
}

// writeArtifact writes one output file of the command: to the command's
// own stdout with encode when path is "-", else to path with writeFile.
func writeArtifact(stdout io.Writer, path string, encode func(io.Writer) error, writeFile func(string) error) error {
	if path == "-" {
		return encode(stdout)
	}
	return writeFile(path)
}

// runCampaign executes the seeded fault-injection campaign, prints the
// summary to report, optionally writes the cfd-faultinject JSON report, and
// returns a nonzero exit code when any injection went undetected.
func runCampaign(report, stdout, stderr io.Writer, n int, seed int64, jsonPath string) int {
	rep, err := faultinject.Run(faultinject.Config{Seed: seed, Injections: n})
	if err != nil {
		return fatalf(stderr, "%v", err)
	}
	fmt.Fprintf(report, "fault injection  seed %d: %d injected, %d detected, %d missed (%d draws skipped)\n",
		rep.Seed, rep.Injected, rep.Detected, rep.Missed, rep.Skipped)
	for _, site := range faultinject.AllSites {
		if st := rep.BySite[site]; st != nil {
			fmt.Fprintf(report, "  %-12s injected %4d  detected %4d  missed %4d\n",
				site, st.Injected, st.Detected, st.Missed)
		}
	}
	return finishCampaign(stdout, stderr, rep, n, jsonPath)
}

// runStoreCampaign executes the result-store corruption campaign: seeded
// on-disk damage (torn writes, bit flips, truncation, stale schemas,
// stripped checksums) to a populated store, each of which must be caught by
// quarantine with the damaged sweep converging back to the golden results.
// The summary goes to report; the exit code is nonzero when any corruption
// goes undetected.
func runStoreCampaign(report, stdout, stderr io.Writer, n int, seed int64, jsonPath string) int {
	rep, err := faultinject.RunStore(faultinject.StoreConfig{Seed: seed, Injections: n})
	if err != nil {
		return fatalf(stderr, "%v", err)
	}
	fmt.Fprintf(report, "store corruption  seed %d: %d injected, %d detected, %d missed\n",
		rep.Seed, rep.Injected, rep.Detected, rep.Missed)
	for _, site := range faultinject.AllStoreSites {
		if st := rep.BySite[site]; st != nil {
			fmt.Fprintf(report, "  %-22s injected %4d  detected %4d  missed %4d\n",
				site, st.Injected, st.Detected, st.Missed)
		}
	}
	return finishCampaign(stdout, stderr, rep, n, jsonPath)
}

// finishCampaign writes the optional cfd-faultinject JSON report and returns
// a nonzero exit code when any injection was missed or the campaign
// under-ran.
func finishCampaign(stdout, stderr io.Writer, rep *faultinject.Report, n int, jsonPath string) int {
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fatalf(stderr, "%v", err)
		}
		data = append(data, '\n')
		if err := writeArtifact(stdout, jsonPath,
			func(w io.Writer) error { _, err := w.Write(data); return err },
			func(path string) error { return os.WriteFile(path, data, 0o644) }); err != nil {
			return fatalf(stderr, "%v", err)
		}
	}
	if rep.Missed > 0 {
		for _, tr := range rep.Trials {
			if tr.Outcome == faultinject.OutcomeMissed {
				fmt.Fprintf(stderr, "cfdsim: MISSED %s on %s at step %d: %s\n",
					tr.Site, tr.Victim, tr.Step, tr.Detail)
			}
		}
		return 1
	}
	if rep.Injected < n {
		return fatalf(stderr, "only %d of %d requested injections applied", rep.Injected, n)
	}
	return 0
}

// writeRunJournal records a single-run journal: the header, one
// spec_done carrying the run's outcome, and the trailer — the
// cfdsim-sized slice of the cfd-journal schema, validatable with the
// same `go run ./internal/obs/validate` tool as a sweep journal.
func writeRunJournal(path string, rs harness.RunSpec, res *harness.Result, runErr error) error {
	j, err := journal.Open(path, "cfdsim")
	if err != nil {
		return err
	}
	j.Emit(harness.SpecDone(rs, res, runErr))
	return j.Close()
}

// runClassify prints the §II-B taxonomy: for every kernel-shaped workload
// (or just the named one), the hard branch's separability class and, for
// each pass-pipeline transform, whether the kernel is accepted or why it
// is rejected. Workloads that still hand-build their programs (the
// classification-study set) have no kernel form to analyze.
func runClassify(stdout, stderr io.Writer, only string) int {
	found := false
	for _, s := range workload.All() {
		if only != "" && s.Name != only {
			continue
		}
		found = true
		if s.Kernel == nil {
			fmt.Fprintf(stdout, "%-16s hand-built (no kernel form; class %v)\n\n", s.Name, s.Class)
			continue
		}
		f, _, err := s.Kernel(s.TestN)
		if err != nil {
			return fatalf(stderr, "%s: kernel: %v", s.Name, err)
		}
		cls, clsErr := f.Classify()
		fmt.Fprintf(stdout, "%-16s class %v", s.Name, cls)
		if clsErr != nil {
			fmt.Fprintf(stdout, " (%v)", clsErr)
		}
		fmt.Fprintln(stdout)
		for _, st := range xform.Acceptance(f, xform.DefaultParams()) {
			if st.Err == nil {
				fmt.Fprintf(stdout, "  %-9s accept\n", st.Transform)
			} else {
				fmt.Fprintf(stdout, "  %-9s reject — %v\n", st.Transform, st.Err)
			}
		}
		fmt.Fprintln(stdout)
	}
	if !found {
		return fatalf(stderr, "unknown workload %q (use -list)", only)
	}
	return 0
}

// fatalf prints an error line to stderr and returns the failure exit code.
func fatalf(stderr io.Writer, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, "cfdsim: "+format+"\n", args...)
	return 1
}
