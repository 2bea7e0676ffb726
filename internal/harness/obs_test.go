package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"cfd/internal/config"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

func obsSpecs() []RunSpec {
	return []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge(), SampleEvery: 256},
		{Workload: "bzip2like", Variant: workload.CFD, Config: config.SandyBridge(), SampleEvery: 256},
		{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge(), SampleEvery: 256},
	}
}

func TestRunnerSampledResult(t *testing.T) {
	r := NewRunner(0.02)
	rs := obsSpecs()[1] // CFD variant: all three queues in play
	res, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeseries == nil || len(res.Timeseries.Samples) == 0 {
		t.Fatal("sampled run returned no time series")
	}
	if res.Timeseries.Every != rs.SampleEvery {
		t.Errorf("series interval %d, spec asked %d", res.Timeseries.Every, rs.SampleEvery)
	}
	if res.Occupancy == nil {
		t.Fatal("sampled run returned no occupancy histograms")
	}
	var sum uint64
	for _, c := range res.Occupancy.BQ.Counts {
		sum += c
	}
	if sum != res.Stats.Cycles {
		t.Errorf("BQ occupancy counts sum to %d, run took %d cycles", sum, res.Stats.Cycles)
	}
	if res.Occupancy.BQ.Max == 0 {
		t.Error("CFD run never occupied the BQ")
	}

	// The unsampled spec is a distinct cache key and carries no telemetry.
	plain := rs
	plain.SampleEvery = 0
	pres, err := r.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Timeseries != nil || pres.Occupancy != nil {
		t.Error("unsampled run carries telemetry sections")
	}
	if pres.Stats.Cycles != res.Stats.Cycles {
		t.Errorf("sampling changed the simulation: %d vs %d cycles", pres.Stats.Cycles, res.Stats.Cycles)
	}
	if m := r.Metrics(); m.Simulations != 2 {
		t.Errorf("expected 2 distinct simulations (sampled + unsampled), got %d", m.Simulations)
	}
}

// journaledSweep sweeps specs on a fresh Runner with a bus-only journal
// attached and returns the Runner and every event the journal delivered.
func journaledSweep(t *testing.T, jobs int, specs []RunSpec) (*Runner, []journal.Event) {
	t.Helper()
	j := journal.New("test")
	var events []journal.Event
	j.Subscribe(func(ev journal.Event) { events = append(events, ev) })
	r := NewRunner(0.02)
	r.Jobs = jobs
	r.Journal = j
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return r, events
}

// encodeTrace renders the journal's sweep trace.
func encodeTrace(t *testing.T, events []journal.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := journal.Trace(events).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSampledSweepDeterministic: telemetry sections and the sweep trace
// are byte-identical whatever Jobs is set to.
func TestSampledSweepDeterministic(t *testing.T) {
	r1, ev1 := journaledSweep(t, 1, obsSpecs())
	r8, ev8 := journaledSweep(t, 8, obsSpecs())
	res1, res8 := r1.Results(), r8.Results()
	if len(res1) != len(res8) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res8))
	}
	for i := range res1 {
		if !reflect.DeepEqual(res1[i].Timeseries, res8[i].Timeseries) {
			t.Errorf("result %d: time series differ between -jobs=1 and -jobs=8", i)
		}
		if !reflect.DeepEqual(res1[i].Occupancy, res8[i].Occupancy) {
			t.Errorf("result %d: occupancy differs between -jobs=1 and -jobs=8", i)
		}
	}
	if !bytes.Equal(encodeTrace(t, ev1), encodeTrace(t, ev8)) {
		t.Error("sweep Perfetto trace differs between -jobs=1 and -jobs=8")
	}
}

// TestHarnessTrace: a sweep's journal renders as a valid Perfetto trace
// whose spans carry the run's counters, and an in-sweep duplicate shows
// as a cache hit on its spec's span.
func TestHarnessTrace(t *testing.T) {
	specs := append(obsSpecs(), obsSpecs()[0])
	_, events := journaledSweep(t, 2, specs)
	trace := encodeTrace(t, events)
	if _, err := obs.ValidateTrace(bytes.NewReader(trace)); err != nil {
		t.Fatalf("sweep trace does not validate: %v", err)
	}
	for _, want := range []string{
		`"cfd experiment harness"`, `"sweep (virtual time)"`,
		`"bzip2like/base @ sandybridge-like"`, `"cacheHits": 1`, `"ipc"`,
	} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("trace missing %q in:\n%.2000s", want, trace)
		}
	}
	if n := bytes.Count(trace, []byte(`"ph": "X"`)); n != len(obsSpecs()) {
		t.Errorf("%d spans for %d distinct specs", n, len(obsSpecs()))
	}
}

// TestSweepProgress pins the journal's progress record of a sweep, the
// source of the -metrics [k/N] lines: the sweep_start carries the spec
// count, each spec gets one spec_done inside the sweep, in arrival
// order and without failure, and sweep_finish closes it with every
// spec completed.
func TestSweepProgress(t *testing.T) {
	specs := obsSpecs()
	for _, jobs := range []int{1, 4} {
		_, events := journaledSweep(t, jobs, specs)
		var sweep, lastSeq uint64
		done, finished := 0, false
		for _, ev := range events {
			if ev.Seq <= lastSeq {
				t.Errorf("jobs=%d: event seq %d after %d", jobs, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			switch ev.Type {
			case journal.SweepStart:
				if ev.Total != len(specs) {
					t.Errorf("jobs=%d: sweep_start total %d, want %d", jobs, ev.Total, len(specs))
				}
				sweep = ev.Sweep
			case journal.SpecDone:
				done++
				if ev.Sweep != sweep || sweep == 0 || finished {
					t.Errorf("jobs=%d: spec_done %d/%d outside its sweep", jobs, done, len(specs))
				}
				if ev.Status != "ok" {
					t.Errorf("jobs=%d: unexpected failure for %s: %s", jobs, ev.Workload, ev.Error)
				}
			case journal.SweepFinish:
				finished = true
				if ev.Completed != len(specs) || ev.Failed != 0 {
					t.Errorf("jobs=%d: sweep_finish %d completed / %d failed, want %d / 0",
						jobs, ev.Completed, ev.Failed, len(specs))
				}
			}
		}
		if done != len(specs) || !finished {
			t.Errorf("jobs=%d: %d spec_done events for %d specs, sweep finished %v", jobs, done, len(specs), finished)
		}
	}
}

// TestSweepProgressCompleteness pins the journal, a sweep's only
// progress record, under parallelism: every submission (duplicates
// included) gets exactly one spec_done, the cache-hit spec_done events
// agree with the Runner's own metrics, and each distinct spec simulates
// once.
func TestSweepProgressCompleteness(t *testing.T) {
	base := obsSpecs()
	specs := append(append([]RunSpec{}, base...), base[0], base[1]) // dups → cache hits
	for _, jobs := range []int{1, 8} {
		r, events := journaledSweep(t, jobs, specs)
		perKey := map[string]int{}
		for _, rs := range specs {
			perKey[rs.key()]++
		}
		cacheHits := 0
		for _, ev := range events {
			if ev.Type != journal.SpecDone {
				continue
			}
			perKey[ev.Key]--
			if ev.Status != "ok" {
				t.Errorf("jobs=%d: unexpected failure for %s: %s", jobs, ev.Key, ev.Error)
			}
			if ev.CacheHit {
				cacheHits++
			}
			if ev.StoreHit {
				t.Errorf("jobs=%d: store hit reported without a store", jobs)
			}
		}
		for k, n := range perKey {
			if n != 0 {
				t.Errorf("jobs=%d: spec %s has %+d submissions without a spec_done", jobs, k, n)
			}
		}
		m := r.Metrics()
		if uint64(cacheHits) != m.CacheHits {
			t.Errorf("jobs=%d: %d cache-hit spec_done events, runner counted %d", jobs, cacheHits, m.CacheHits)
		}
		if m.Simulations != uint64(len(base)) {
			t.Errorf("jobs=%d: %d simulations, want %d", jobs, m.Simulations, len(base))
		}
	}
}
