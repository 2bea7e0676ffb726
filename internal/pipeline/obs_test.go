package pipeline

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"cfd/internal/mem"
	"cfd/internal/obs"
	"cfd/internal/stats"
)

// obsRun runs the cfdLoop workload with an attached observer and returns
// the finished core.
func obsRun(t testing.TB, every uint64, n int64) *Core {
	t.Helper()
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(int(n), 100, 17))
	cfg := testConfig()
	o := obs.NewObserver(every, cfg.BQSize, cfg.VQSize, cfg.TQSize)
	core, err := New(cfg, cfdLoop(0x10000, 0x80000, n, 50), m, WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		t.Fatal(err)
	}
	core.FinishObservation()
	return core
}

func TestObserverTimeSeries(t *testing.T) {
	const every = 64
	core := obsRun(t, every, 100)
	o := core.Observer()
	st := &core.Stats

	wantSamples := int(st.Cycles / every)
	if st.Cycles%every != 0 {
		wantSamples++ // Finish flushes the partial tail
	}
	if len(o.Samples) != wantSamples {
		t.Fatalf("%d samples over %d cycles at every=%d, want %d",
			len(o.Samples), st.Cycles, every, wantSamples)
	}

	// Per-sample invariants, plus: interval retires must total the run's.
	var retired float64
	var prevCycle uint64
	for i, s := range o.Samples {
		if s.Cycle <= prevCycle {
			t.Fatalf("sample %d: cycle %d not increasing past %d", i, s.Cycle, prevCycle)
		}
		dc := float64(s.Cycle - prevCycle)
		retired += s.IPC * dc
		if s.IPC < 0 || s.IPC > float64(testConfig().RetireWidth) {
			t.Errorf("sample %d: IPC %v outside [0, retire width]", i, s.IPC)
		}
		for name, f := range map[string]float64{
			"fetch": s.FetchStall, "bq": s.BQStall, "tq": s.TQStall,
		} {
			if f < 0 || f > 1 {
				t.Errorf("sample %d: %s stall fraction %v outside [0,1]", i, name, f)
			}
		}
		if s.BQOcc < 0 || s.BQOcc > float64(testConfig().BQSize) {
			t.Errorf("sample %d: BQ occupancy %v outside queue bounds", i, s.BQOcc)
		}
		prevCycle = s.Cycle
	}
	if got := uint64(math.Round(retired)); got != st.Retired {
		t.Errorf("time series accounts for %d retires, run retired %d", got, st.Retired)
	}
	// The last boundary is the run's final cycle.
	if last := o.Samples[len(o.Samples)-1].Cycle; last != st.Cycles {
		t.Errorf("last sample at cycle %d, run took %d", last, st.Cycles)
	}
	// Stall fractions must agree with the CPI stack in aggregate.
	var bqStall float64
	prevCycle = 0
	for _, s := range o.Samples {
		bqStall += s.BQStall * float64(s.Cycle-prevCycle)
		prevCycle = s.Cycle
	}
	if got, want := uint64(math.Round(bqStall)), st.CPI.Buckets[stats.CPIBQStall]; got != want {
		t.Errorf("series BQ stall cycles %d != CPI stack %d", got, want)
	}
}

func TestObserverOccupancyHistograms(t *testing.T) {
	core := obsRun(t, 64, 100)
	o := core.Observer()
	st := &core.Stats

	// Every cycle observed exactly once per queue.
	for name, h := range map[string]*obs.Hist{"BQ": o.BQ, "VQ": o.VQ, "TQ": o.TQ} {
		if h.Total() != st.Cycles {
			t.Errorf("%s histogram saw %d cycles, run took %d", name, h.Total(), st.Cycles)
		}
	}
	// cfdLoop pushes predicates well ahead of the consumer loop: the BQ
	// must have been observed non-empty.
	if o.BQ.Max() == 0 {
		t.Error("BQ never observed non-empty in a CFD workload")
	}
	occ := o.Occupancy()
	if occ == nil {
		t.Fatal("no occupancy section")
	}
	if occ.BQ.Size != testConfig().BQSize || occ.BQ.Max == 0 {
		t.Errorf("BQ occupancy export wrong: %+v", occ.BQ)
	}
	var sum uint64
	for _, c := range occ.BQ.Counts {
		sum += c
	}
	if sum != st.Cycles {
		t.Errorf("exported BQ counts sum to %d, want %d", sum, st.Cycles)
	}
}

// TestObserverDeterministic: the same run observed twice yields identical
// series and histograms (the export-determinism building block).
func TestObserverDeterministic(t *testing.T) {
	a := obsRun(t, 32, 100).Observer()
	b := obsRun(t, 32, 100).Observer()
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Error("samples differ between identical runs")
	}
	if !reflect.DeepEqual(a.Occupancy(), b.Occupancy()) {
		t.Error("occupancy differs between identical runs")
	}
}

func TestPerfettoTraceFromPipeline(t *testing.T) {
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(100, 100, 17))
	cfg := testConfig()
	o := obs.NewObserver(64, cfg.BQSize, cfg.VQSize, cfg.TQSize)
	// Start the window deep inside the consumer loop (the generator loop
	// retires ~600 instructions first), so the trace must contain the
	// steady-state branch_bq pops.
	core, err := New(cfg, cfdLoop(0x10000, 0x80000, 100, 50), m,
		WithObserver(o), WithTraceWindow(800, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		t.Fatal(err)
	}
	core.FinishObservation()

	tr := core.PerfettoTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("pipeline trace does not validate: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"cfd pipeline core"`, `"fetch"`, `"issue/execute"`, // rows
		`"ipc"`, `"queue occupancy"`, // counter tracks from the observer
		"branch_bq", // the CFD pop must appear in a traced window
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// Determinism: rebuilding and re-encoding is byte-identical.
	var again bytes.Buffer
	if err := core.PerfettoTrace().Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-encoded trace differs")
	}
}

// BenchmarkPipelineObserved measures the enabled-observability path;
// compare against BenchmarkPipelineDisabledObs (the instrumented-but-
// disabled path, equivalent to the pre-observability simulator) to bound
// the sampling overhead.
func benchPipeline(b *testing.B, every uint64) {
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(120, 100, 17))
	cfg := testConfig()
	p := cfdLoop(0x10000, 0x80000, 120, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var opts []Option
		if every > 0 {
			opts = append(opts, WithObserver(obs.NewObserver(every, cfg.BQSize, cfg.VQSize, cfg.TQSize)))
		}
		core, err := New(cfg, p, m.Clone(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Run(0); err != nil {
			b.Fatal(err)
		}
		core.FinishObservation()
	}
}

func BenchmarkPipelineDisabledObs(b *testing.B) { benchPipeline(b, 0) }
func BenchmarkPipelineObserved(b *testing.B)    { benchPipeline(b, 1024) }
