// Command perfbench is the repository's benchmark. It measures the
// simulator's host throughput on recovery-heavy base variants (sim-base)
// and on decoupled variants (sim-cfd), and the wall clock of a small
// manifest campaign and of its resume from the warm store (campaign).
// README.md beside this file explains the workloads and the metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-base --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object holding correct,
// attempted, failed and the metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The full record of the
// run (host, inputs, each metric's quartiles, ratio bases and, when
// traced, every span) is written under --work.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed gives every spec exactly its stated input size.
const defaultSeed = 1

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median. The first round also lets lazy initialisation finish.
const setupRounds = 11

// env is one invocation's settings.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory inside the checkout
	jobs     int    // campaign workers: one per CPU
}

// outcome is what one workload run produced.
type outcome struct {
	e2e, raw  []*series    // raw: host-time metrics before calibration
	layers    *layerReport // traced runs only
	spans     *tracer      // traced runs only
	inputs    any          // each spec's resolved input size
	attempted int
	failures  []string
}

// series is one end-to-end metric's samples, one per repetition.
type series struct {
	name, unit string
	samples    []float64
}

func (o *outcome) record(name, unit string, v float64) { o.e2e = add(o.e2e, name, unit, v) }

func (o *outcome) recordRaw(name, unit string, v float64) { o.raw = add(o.raw, name, unit, v) }

func add(ss []*series, name, unit string, v float64) []*series {
	for _, s := range ss {
		if s.name == name {
			s.samples = append(s.samples, v)
			return ss
		}
	}
	return append(ss, &series{name, unit, []float64{v}})
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim-base": func(e *env) (*outcome, error) { return simWorkload(e, false) },
	"sim-cfd":  func(e *env) (*outcome, error) { return simWorkload(e, true) },
	"campaign": campaignWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "sim-base, sim-cfd or campaign")
		seed    = fs.Int64("seed", defaultSeed, "input seed")
		seconds = fs.Int("seconds", 35, "how long an untraced run measures")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		work    = fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for stores, journals, documents and records")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	measure, ok := workloads[*wl]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload sim-base|sim-cfd|campaign --seed N --seconds S --trace 0|1")
		return 2
	}
	errorf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
		return 1
	}
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		return errorf("%v", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return errorf("%v", err)
	}
	e := &env{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     *work,
		jobs:     runtime.NumCPU(),
	}
	o, err := measure(e)
	if err != nil {
		return errorf("%s: %v", *wl, err)
	}
	rec := newRecord(e, o)
	want := decl.EndToEnd
	if e.trace {
		want = decl.PerLayer
	}
	if err := checkDeclared(rec.metrics, want); err != nil {
		return errorf("%v", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", e.workload, e.seed, *trace)
	if o.spans != nil {
		rec.SpanFile = filepath.Join(e.work, "spans-"+name+".json")
		if err := writeJSON(rec.SpanFile, o.spans.spans); err != nil {
			return errorf("%v", err)
		}
	}
	path := filepath.Join(e.work, "record-"+name+".json")
	if err := writeJSON(path, rec); err != nil {
		return errorf("%v", err)
	}
	rec.print(stdout)
	fmt.Fprintf(stderr, "perfbench: record written to %s\n", path)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.metrics})
	if err != nil {
		return errorf("%v", err)
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host identifies the machine a record was measured on, so that figures
// from different hosts are never compared silently.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// spread is an end-to-end metric's median with its run-to-run quartiles.
type spread struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// record is the machine-readable result of one run.
type record struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Traced     bool                  `json:"traced"`
	Host       host                  `json:"host"`
	Inputs     any                   `json:"inputs"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	FailFrac   float64               `json:"failFrac"`
	Failures   []string              `json:"failures,omitempty"`
	EndToEnd   []spread              `json:"endToEnd,omitempty"`
	Raw        []spread              `json:"uncalibrated,omitempty"`
	PerLayer   []metric              `json:"perLayer,omitempty"`
	RatioBases map[string][2]string  `json:"ratioBases,omitempty"`
	Layers     map[string]*layerTime `json:"layers,omitempty"`
	SpanFile   string                `json:"spanFile,omitempty"`

	metrics map[string]value
}

func newRecord(e *env, o *outcome) *record {
	rec := &record{
		Workload: e.workload,
		Seed:     e.seed,
		Seconds:  e.seconds.Seconds(),
		Traced:   e.trace,
		Host: host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Inputs:    o.inputs,
		Attempted: max(o.attempted, 1),
		Failed:    len(o.failures),
		Failures:  o.failures,
		metrics:   make(map[string]value),
	}
	rec.FailFrac = float64(rec.Failed) / float64(rec.Attempted)
	rec.Correct = rec.Failed == 0
	if e.trace {
		rec.PerLayer = o.layers.metrics()
		rec.RatioBases = ratioBases
		rec.Layers = o.layers.Layers
		for _, m := range rec.PerLayer {
			rec.metrics[m.Name] = value{m.Value, m.Unit}
		}
		return rec
	}
	for _, s := range o.e2e {
		rec.EndToEnd = append(rec.EndToEnd, s.spread())
		rec.metrics[s.name] = value{rec.EndToEnd[len(rec.EndToEnd)-1].Median, s.unit}
	}
	for _, s := range o.raw {
		rec.Raw = append(rec.Raw, s.spread())
	}
	return rec
}

func (s *series) spread() spread {
	q1, med, q3 := quartiles(s.samples)
	return spread{s.name, s.unit, med, q1, q3, s.samples}
}

// print writes the human-readable summary.
func (rec *record) print(w io.Writer) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v  host: nproc=%d gomaxprocs=%d %s %s/%s\n",
		rec.Workload, rec.Seed, rec.Traced, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
	for _, s := range rec.EndToEnd {
		fmt.Fprintf(w, "  %-14s %14.4f %-6s  q1 %.4f  q3 %.4f  (%d samples)\n",
			s.Name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Samples))
	}
	for _, s := range rec.Raw {
		fmt.Fprintf(w, "  %-14s %14.4f %-6s  q1 %.4f  q3 %.4f  (uncalibrated)\n", s.Name, s.Median, s.Unit, s.Q1, s.Q3)
	}
	for _, m := range rec.PerLayer {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  fail_frac %.4f (%d failed of %d attempted)\n", rec.FailFrac, rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// quartiles returns the first quartile, the median and the third quartile
// of xs as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method). One sample is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// declaration is the part of BENCHMARK.json the output is checked
// against: every declared metric, with its unit, and no other.
type declaration struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func checkDeclared(got map[string]value, want []declared) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("declared metric %s not reported", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", d.Name, v.Unit, d.Unit)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pins.json holds the work counts the default seed must reproduce: each
// sim spec's input size, retired instructions and simulated cycles, and
// the campaign's totals (the campaign's sizes do not depend on the seed).
// A change to the modelled machine that moves them updates the file.
//
//go:embed pins.json
var pinsJSON []byte

var pins = loadPins()

type simPin struct {
	N       int64  `json:"n"`
	Retired uint64 `json:"retired"`
	Cycles  uint64 `json:"cycles"`
}

func (p simPin) matches(n int64, r simRun) bool {
	return p.N == n && p.Retired == r.Retired && p.Cycles == r.Cycles
}

type campaignPin struct {
	Specs   int    `json:"specs"`
	Retired uint64 `json:"retired"`
	Cycles  uint64 `json:"cycles"`
}

type pinSet struct {
	Sim      map[string]simPin `json:"sim"`
	Campaign campaignPin       `json:"campaign"`
}

func loadPins() pinSet {
	var ps pinSet
	if err := json.Unmarshal(pinsJSON, &ps); err != nil {
		panic("perfbench: embedded pins.json: " + err.Error())
	}
	return ps
}
