// Command cfdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cfdbench -exp all            # every experiment
//	cfdbench -exp fig18          # one experiment
//	cfdbench -exp fig18,fig24    # several
//	cfdbench -list               # list experiment IDs (with manifest spec counts)
//	cfdbench -manifest m.json    # sweep a declarative experiment manifest
//	cfdbench -manifest m.json -manifest-expand   # dry-run: print the spec keys
//	cfdbench -scale 0.2          # reduce workload sizes (1.0 = full)
//	cfdbench -jobs 8             # simulation parallelism (default GOMAXPROCS)
//	cfdbench -verify             # cross-check every run against the emulator
//	cfdbench -json out.json      # export every run as schema-versioned JSON
//	cfdbench -store dir          # persist results on disk; resume sweeps
//	cfdbench -keep-going         # run every simulation even when some fault
//	cfdbench -max-cycles N       # per-run watchdog cycle budget
//	cfdbench -deadline 5m        # per-run watchdog wall-clock deadline
//	cfdbench -metrics            # stream per-simulation progress to stderr
//	cfdbench -trace-out t.json   # Perfetto trace of the sweeps (virtual time)
//	cfdbench -journal s.journal  # structured JSONL event journal of the sweeps
//	cfdbench -journal-sorted     # canonicalize the journal on exit (jobs-independent)
//	cfdbench -listen 127.0.0.1:9190  # live /metrics, /status, /debug/pprof server
//	cfdbench -host-sample 1s     # sample host RSS/GC/goroutines on this interval
//	cfdbench -cpuprofile cpu.pb  # write a pprof CPU profile
//	cfdbench -memprofile mem.pb  # write a pprof heap profile
//
// -store attaches a crash-safe on-disk result store: every completed
// simulation (and every deterministic typed fault) is persisted as it
// lands, and a rerun with the same directory re-simulates only the
// missing or invalidated cells — so a 10,000-point sweep survives
// crashes, SIGKILL, and reboots, across processes and CI runs. Corrupt
// entries (torn writes, bit flips, stale schemas) are detected by
// checksum, quarantined to <dir>/quarantine, and transparently
// re-simulated.
//
// On SIGINT or SIGTERM a -store run drains cleanly: no new simulations
// start, in-flight simulations run to completion and flush to the store,
// and the process exits with code 3 (distinct from 1 = error and 2 = bad
// usage). Kill-and-rerun therefore converges: the resumed run's tables
// and JSON export are byte-identical to an uninterrupted run's (the one
// exception is the diagnostic `store` section of the JSON document, which
// reports this process's hit/miss split). A second signal kills the
// process immediately, and even that is safe: the store's atomic write
// protocol never exposes a torn entry.
//
// -metrics prints one stderr line per completed simulation — status, the
// Runner's cumulative cache hit rate, and an ETA for the current sweep —
// without touching stdout, which stays a deterministic artifact. The lines
// are derived from the journal's event stream (an in-memory bus when no
// -journal file is asked for), and the ETA is the one -listen's /status
// reports. They print as the journal's writer delivers them, so one may
// land after its experiment's timing line. The end-of-run cache totals
// print on stderr regardless.
//
// -json - or -trace-out - streams that document to stdout; the experiment
// tables then move to stderr so stdout carries exactly one machine-parseable
// JSON document, whatever other flags (-metrics, -keep-going) are set. The
// two cannot share stdout.
//
// -trace-out renders the journal's spec_done events as a virtual timeline
// (one span per distinct spec, laid end to end in key order, as wide as
// its simulated cycles, annotated with the spec's in-sweep cache hits and
// fault outcome) in Chrome trace-event JSON for ui.perfetto.dev; like the
// stdout tables, the trace is byte-identical for any -jobs value.
//
// -journal records a crash-safe, schema-versioned JSONL event journal of
// the campaign: sweep lifecycle, per-spec submit/start/done with result
// counters and how each result materialized (simulated, cache hit, store
// hit, persisted), store quarantines and retries, watchdog expiries, and
// host-resource samples. Events flow through a buffered bus to a
// dedicated writer, so the sweep never stalls on journal I/O, and every
// durable event is flushed as written — a SIGKILLed run's journal replays
// exactly the completions that reached the store (validate it with
// `go run ./internal/obs/validate -store <dir> <journal>`).
// -journal-sorted rewrites the file on exit into its canonical sorted
// replay, which is byte-identical across -jobs settings.
//
// -listen serves live observability on a loopback address while the run
// is in flight: GET /metrics is the Prometheus text exposition of the
// runner-cache, store, and host-sampler series; GET /status is a JSON
// snapshot of sweep progress (with a simulated-only ETA), in-flight
// specs, and the last journal events; /debug/pprof is the standard Go
// profiler. -host-sample enables the host-resource sampler (RSS, GC
// pause totals, goroutine count, allocation rate) on the given interval,
// feeding both /metrics and the journal.
//
// Each experiment submits all of its simulations up front and fans them
// across -jobs workers, then assembles its rows serially — so the output
// is byte-identical for any -jobs value (-jobs 1 reproduces the historical
// strictly serial behavior).
//
// -manifest sweeps a declarative experiment manifest (schema cfd-manifest,
// see DESIGN.md): a JSON file declaring workload selectors, variant
// expressions, and config-mutation sets whose cross-product expands
// deterministically into run specs. The sweep composes with every other
// flag — -store resume, -jobs, -journal (the sweep_start event carries the
// manifest's content digest), -json (the document gains a `manifest`
// provenance section). -manifest-expand is the dry run: it prints the
// expanded spec count and the sorted spec keys without simulating, and its
// output is byte-identical for any -jobs value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/manifest"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/serve"
)

// Exit codes. Interruption is distinct from failure so scripts and CI can
// tell "drained cleanly, rerun -store to resume" from "something broke".
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	// SIGINT/SIGTERM cancel the context; the sweeps drain (in-flight
	// simulations complete and, with -store, persist) and the process
	// exits with exitInterrupted. A second signal restores the default
	// handler's immediate kill — safe even mid-write, because the store
	// only ever publishes entries by atomic rename.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its context, streams, and exit code lifted out so tests
// can drive the binary end to end and decode what lands on stdout.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("cfdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp          = fs.String("exp", "all", "experiment IDs (comma separated) or 'all'")
		manifestPath = fs.String("manifest", "", "sweep a declarative experiment manifest (JSON file) instead of -exp")
		manifestDry  = fs.Bool("manifest-expand", false, "with -manifest: print the expanded spec count and sorted keys, then exit")
		scale        = fs.Float64("scale", 0.25, "workload size scale factor (1.0 = full evaluation)")
		jobs         = fs.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
		verify       = fs.Bool("verify", false, "differentially verify every run against the functional emulator")
		list         = fs.Bool("list", false, "list experiments")
		jsonPath     = fs.String("json", "", "write every run's counters, CPI stack, and energy as JSON to this path ('-' = stdout)")
		storeDir     = fs.String("store", "", "persist results to this on-disk store; reruns resume, re-simulating only missing or corrupt cells")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this path on exit")

		keepGoing = fs.Bool("keep-going", false, "complete every simulation even when some fail; failures land in the JSON faults section")
		maxCycles = fs.Uint64("max-cycles", 0, "per-run watchdog cycle budget (0 = unlimited)")
		deadline  = fs.Duration("deadline", 0, "per-run watchdog wall-clock deadline (0 = none)")

		metrics  = fs.Bool("metrics", false, "stream per-simulation progress (status, cache hit rate, ETA) to stderr")
		traceOut = fs.String("trace-out", "", "write a Chrome/Perfetto trace of the sweeps to this path ('-' = stdout)")

		journalPath   = fs.String("journal", "", "write a structured JSONL event journal of the sweeps to this path")
		journalSorted = fs.Bool("journal-sorted", false, "rewrite the journal on exit into its canonical sorted replay (byte-identical across -jobs)")
		listenAddr    = fs.String("listen", "", "serve live /metrics, /status, and /debug/pprof on this address (e.g. 127.0.0.1:9190)")
		hostSample    = fs.Duration("host-sample", 0, "sample host resources (RSS, GC, goroutines) on this interval (0 = off)")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if *jsonPath == "-" && *traceOut == "-" {
		fmt.Fprintln(stderr, "cfdbench: -json - and -trace-out - cannot share stdout")
		return exitUsage
	}
	errorf := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "cfdbench: "+format+"\n", args...)
		return exitError
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return errorf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errorf("cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		// The specs column is each experiment's embedded-manifest expansion
		// size; "-" marks experiments with no spec sweep (static tables,
		// classification studies).
		for _, e := range harness.AllExperiments() {
			count := "-"
			if e.Manifest != nil {
				specs, err := e.Specs()
				if err != nil {
					return errorf("%s: manifest: %v", e.ID, err)
				}
				count = fmt.Sprint(len(specs))
			}
			fmt.Fprintf(stdout, "%-16s %5s  %s\n", e.ID, count, e.Title)
		}
		return 0
	}

	// -manifest replaces -exp: load, validate, and expand the declarative
	// sweep up front so a bad manifest fails before any simulation starts.
	var mf *manifest.Manifest
	var mfSpecs []harness.RunSpec
	if *manifestPath != "" {
		m, err := manifest.Load(*manifestPath)
		if err != nil {
			return errorf("%v", err)
		}
		specs, err := harness.SpecsFromManifest(m)
		if err != nil {
			return errorf("%s: %v", *manifestPath, err)
		}
		if *manifestDry {
			fmt.Fprintf(stdout, "manifest %s (%s): %d specs\n", manifestName(m, *manifestPath), m.Digest(), len(specs))
			for _, sp := range specs {
				fmt.Fprintln(stdout, sp.Key())
			}
			return 0
		}
		mf, mfSpecs = m, specs
	} else if *manifestDry {
		return errorf("-manifest-expand requires -manifest")
	}

	var exps []*harness.Experiment
	if mf == nil {
		if *exp == "all" {
			exps = harness.AllExperiments()
		} else {
			for _, id := range strings.Split(*exp, ",") {
				e, ok := harness.ByID(strings.TrimSpace(id))
				if !ok {
					return errorf("unknown experiment %q (use -list)", id)
				}
				exps = append(exps, e)
			}
		}
	}

	// With -json - or -trace-out - the document owns stdout: everything
	// human-readable — the experiment tables included — moves to stderr,
	// so stdout can be piped straight into a decoder.
	tableOut := stdout
	if *jsonPath == "-" || *traceOut == "-" {
		tableOut = stderr
	}

	r := harness.NewRunner(*scale)
	r.Jobs = *jobs
	r.Verify = *verify
	r.KeepGoing = *keepGoing
	r.MaxCycles = *maxCycles
	r.RunTimeout = *deadline
	r.BaseCtx = ctx
	if *storeDir != "" {
		st, err := harness.OpenStore(*storeDir)
		if err != nil {
			return errorf("%v", err)
		}
		r.Store = st
	}

	// Observability wiring: the journal bus exists whenever anything wants
	// the event stream — a -journal file sink, the -metrics lines, the
	// -trace-out timeline, a -listen /status tracker, or a -host-sample
	// feed. Everything hangs off the same bus so the file, the progress
	// lines, the trace, the live server, and the samples all see one event
	// order, and -metrics and /status share one tracker and so one ETA.
	var jr *journal.Journal
	if *journalPath != "" {
		j, err := journal.Open(*journalPath, "cfdbench")
		if err != nil {
			return errorf("%v", err)
		}
		jr = j
	} else if *metrics || *traceOut != "" || *listenAddr != "" || *hostSample > 0 {
		jr = journal.New("cfdbench")
	}
	var tr *serve.Tracker
	var specsDone []journal.Event // -trace-out's input; read only after jr.Close
	if jr != nil {
		r.Journal = jr
		defer jr.Close()
		if r.Store != nil {
			r.Store.OnQuarantine = func(entry, reason string) {
				jr.Emit(journal.Event{Type: journal.StoreQuarantine, Entry: entry, Reason: reason})
			}
			r.Store.OnRetry = func() {
				jr.TryEmit(journal.Event{Type: journal.StoreRetry})
			}
		}
		if *metrics || *listenAddr != "" {
			tr = serve.NewTracker()
			jr.Subscribe(tr.Observe)
		}
		if *metrics {
			jr.Subscribe(progressLine(r, tr, stderr))
		}
		if *traceOut != "" {
			jr.Subscribe(func(ev journal.Event) {
				if ev.Type == journal.SpecDone {
					specsDone = append(specsDone, ev)
				}
			})
		}
	}
	var sampler *obs.HostSampler
	if *hostSample > 0 {
		sampler = obs.StartHostSampler(*hostSample, func(hs obs.HostStats) {
			jr.TryEmit(journal.Event{Type: journal.HostSample, Host: &hs})
		})
		defer sampler.Stop()
	}
	if *listenAddr != "" {
		srv := serve.New("cfdbench", tr)
		srv.Runner = r
		srv.Journal = jr
		srv.Host = sampler
		addr, err := srv.Start(*listenAddr)
		if err != nil {
			return errorf("%v", err)
		}
		fmt.Fprintf(stderr, "cfdbench: serving /metrics, /status, /debug/pprof on http://%s\n", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort teardown
		}()
	}
	var records []export.Experiment
	failedExps := 0
	interrupted := false
	if mf != nil {
		name := manifestName(mf, *manifestPath)
		r.ManifestDigest = mf.Digest()
		start := time.Now()
		fmt.Fprintf(tableOut, "### manifest %s — %d specs\n\n", name, len(mfSpecs))
		if err := r.Prefetch(mfSpecs...); err != nil {
			switch {
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				interrupted = true
				fmt.Fprintf(stderr, "cfdbench: manifest %s: interrupted, drained in-flight runs\n", name)
			case !*keepGoing:
				return errorf("manifest %s: %v", name, err)
			default:
				failedExps++
				fmt.Fprintf(stderr, "cfdbench: manifest %s: %v (continuing)\n", name, err)
			}
		}
		m := r.Metrics()
		if !interrupted {
			fmt.Fprintf(tableOut, "manifest %s: swept %d specs (%d failed)\n\n",
				name, len(mfSpecs), len(r.Failures()))
		}
		records = append(records, export.Experiment{
			ID: "manifest:" + name, Title: "manifest sweep " + name, Metrics: m})
		fmt.Fprintf(stderr, "(manifest %s in %.1fs: %d lookups, %d simulated, %d cache hits)\n",
			name, time.Since(start).Seconds(), m.Lookups, m.Simulations, m.CacheHits)
	}
	for _, e := range exps {
		if ctx.Err() != nil {
			// Signal received between experiments: skip the rest. The
			// completed (and, in-store, persisted) work is kept; a rerun
			// with the same -store resumes from here.
			interrupted = true
			break
		}
		start := time.Now()
		before := r.Metrics()
		fmt.Fprintf(tableOut, "### %s — %s\n\n", e.ID, e.Title)
		if err := r.RunExperiment(e, tableOut); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The drain already happened inside Sweep: every
				// in-flight simulation completed and flushed before the
				// cancellation error surfaced here.
				interrupted = true
				fmt.Fprintf(stderr, "cfdbench: %s: interrupted, drained in-flight runs\n", e.ID)
				break
			}
			if !*keepGoing {
				return errorf("%s: %v", e.ID, err)
			}
			// Keep-going mode: the failed run is memoized as a fault and
			// exported; the remaining experiments still execute.
			failedExps++
			fmt.Fprintf(stderr, "cfdbench: %s: %v (continuing)\n", e.ID, err)
		}
		m := r.Metrics().Sub(before)
		records = append(records, export.Experiment{ID: e.ID, Title: e.Title, Metrics: m})
		// Timing and cache metrics go to stderr so stdout is a
		// deterministic artifact: byte-identical for any -jobs value,
		// diffable across runs.
		fmt.Fprintf(stderr, "(%s in %.1fs: %d lookups, %d simulated, %d cache hits)\n",
			e.ID, time.Since(start).Seconds(), m.Lookups, m.Simulations, m.CacheHits)
		fmt.Fprintln(tableOut)
	}

	// End-of-run cache totals: how much work the memoizing Runner saved.
	tot := r.Metrics()
	hitRate := 0.0
	if tot.Lookups > 0 {
		hitRate = float64(tot.CacheHits) / float64(tot.Lookups)
	}
	fmt.Fprintf(stderr, "cfdbench: runner cache: %d lookups, %d simulated, %d hits (%.0f%% hit rate)\n",
		tot.Lookups, tot.Simulations, tot.CacheHits, 100*hitRate)
	if r.Store != nil {
		sm := r.Store.Metrics()
		entries := "?"
		if n, err := r.Store.Len(); err == nil {
			entries = fmt.Sprint(n)
		}
		fmt.Fprintf(stderr, "cfdbench: store %s: %d hits, %d misses, %d puts, %d quarantined, %d retries (%s entries on disk)\n",
			r.Store.Dir(), sm.Hits, sm.Misses, sm.Puts, sm.Quarantines, sm.Retries, entries)
	}

	// Finalize the journal before the export document is built, so the
	// document's journal section reports the final event count, the file
	// on disk is complete, and every subscriber has seen its last event
	// (Close is idempotent; the defer is the early-error backstop). The
	// sampler stops first — no samples after the trailer.
	if jr != nil {
		sampler.Stop()
		if err := jr.Close(); err != nil {
			fmt.Fprintf(stderr, "cfdbench: journal: %v\n", err)
		}
		if n := jr.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "cfdbench: journal: %d informational events dropped (bus full)\n", n)
		}
		fmt.Fprintf(stderr, "cfdbench: journal: %d events\n", jr.Events())
	}

	if *jsonPath != "" {
		doc := export.Build("cfdbench", r, records)
		if mf != nil {
			doc.Manifest = &export.ManifestSection{
				Path:    *manifestPath,
				Name:    mf.Name,
				Schema:  mf.Schema,
				Version: mf.Version,
				Digest:  mf.Digest(),
				Specs:   len(mfSpecs),
			}
		}
		if err := writeArtifact(stdout, *jsonPath,
			func(w io.Writer) error { return export.Encode(w, doc) },
			func(path string) error { return export.WriteFile(path, doc) }); err != nil {
			return errorf("%v", err)
		}
	}
	if *traceOut != "" {
		tr := journal.Trace(specsDone)
		if err := writeArtifact(stdout, *traceOut, tr.Encode, tr.WriteFile); err != nil {
			return errorf("%v", err)
		}
	}
	if *journalSorted && *journalPath != "" {
		if err := journal.RewriteSorted(*journalPath); err != nil {
			return errorf("%v", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return errorf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return errorf("heap profile: %v", err)
		}
		f.Close()
	}
	if interrupted {
		fmt.Fprintln(stderr, "cfdbench: interrupted; completed work persisted, rerun with the same -store to resume")
		return exitInterrupted
	}
	if failedExps > 0 {
		return errorf("%d experiment(s) had failing runs (recorded in the JSON faults section)", failedExps)
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

// manifestName labels a manifest run: the declared name, or the file path
// for anonymous manifests.
func manifestName(m *manifest.Manifest, path string) string {
	if m.Name != "" {
		return m.Name
	}
	return path
}

// progressLine returns the -metrics journal subscriber: one stderr line
// per spec_done, numbered and timed by the tracker's view of the current
// sweep (subscribe tr first, so it has already folded the event in).
func progressLine(r *harness.Runner, tr *serve.Tracker, w io.Writer) func(journal.Event) {
	return func(ev journal.Event) {
		if ev.Type != journal.SpecDone {
			return
		}
		sw := tr.Snapshot().Sweep
		if sw == nil {
			return
		}
		m := r.Metrics()
		hitRate := 0.0
		if m.Lookups > 0 {
			hitRate = float64(m.CacheHits) / float64(m.Lookups)
		}
		status := "ok"
		if ev.Status == "fault" {
			status = "FAIL"
		}
		// With a store attached, say how many cache misses were restored
		// from disk instead of simulated — the live view of a resumed sweep.
		stored := ""
		if r.Store != nil {
			stored = fmt.Sprintf("  store hits %d", r.Store.Metrics().Hits)
		}
		fmt.Fprintf(w, "  [%d/%d] %-48s %-4s  hit rate %3.0f%%%s  eta %s\n",
			sw.Completed, sw.Total,
			fmt.Sprintf("%s/%s @ %s", ev.Workload, ev.Variant, ev.Config),
			status, 100*hitRate, stored, etaText(sw))
	}
}

// etaText renders a sweep's ETA for a -metrics line: the tracker's
// estimate rounded to 100ms, or "-" while it has no basis for one.
func etaText(sw *serve.SweepStatus) string {
	if sw.ETASec < 0 {
		return "-"
	}
	return time.Duration(sw.ETASec * float64(time.Second)).Round(100 * time.Millisecond).String()
}

// syncWriter serializes writes to w: journal subscribers (the -metrics
// lines) print from the journal's writer goroutine while the main
// goroutine reports on the same stream.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
