package obs

import (
	"math"
	"reflect"
	"testing"
)

func TestHistClampAndStats(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int{0, 1, 1, 4, 9, -3} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 0, 0, 2} // -3 clamps to 0, 9 clamps to 4
	if !reflect.DeepEqual(h.Counts(), want) {
		t.Errorf("counts = %v, want %v", h.Counts(), want)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
	if h.Max() != 4 {
		t.Errorf("max = %d, want 4", h.Max())
	}
	if got, want := h.Mean(), (0+0+1+1+4+4)/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestDisabledProbesAllocFree pins the overhead contract: with
// observability off (a nil observer), every per-cycle hook the engines
// call is a no-op that allocates nothing.
func TestDisabledProbesAllocFree(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		o.TickQueues(1, 2, 3, 1)
		if o.Due(64) {
			t.Fatal("nil observer is never due")
		}
		o.Record(IntervalCounters{Cycle: 64})
		o.Finish(IntervalCounters{Cycle: 64})
		if o.Timeseries() != nil || o.Occupancy() != nil {
			t.Fatal("nil observer has no sections")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled probe path allocates %v objects per run, want 0", allocs)
	}
}

func TestObserverSampling(t *testing.T) {
	o := NewObserver(10, 8, 8, 4)
	var c IntervalCounters
	for cycle := uint64(1); cycle <= 25; cycle++ {
		o.TickQueues(2, 1, 0, 1)
		c.Cycle = cycle
		c.Retired += 3
		if cycle%5 == 0 {
			c.Mispredicts++
		}
		c.FetchStallCycles += 1 // every cycle "stalled" for the test
		if o.Due(cycle) {
			o.Record(c)
		}
	}
	o.Finish(c)

	if len(o.Samples) != 3 {
		t.Fatalf("%d samples, want 3 (two full intervals + partial)", len(o.Samples))
	}
	s0 := o.Samples[0]
	if s0.Cycle != 10 || s0.IPC != 3 || s0.FetchStall != 1 || s0.BQOcc != 2 || s0.VQOcc != 1 || s0.TQOcc != 0 {
		t.Errorf("first sample wrong: %+v", s0)
	}
	if want := 1000 * 2.0 / 30.0; math.Abs(s0.MPKI-want) > 1e-12 {
		t.Errorf("MPKI = %v, want %v", s0.MPKI, want)
	}
	last := o.Samples[2]
	if last.Cycle != 25 {
		t.Errorf("partial interval ends at %d, want 25", last.Cycle)
	}
	// Finish is idempotent: a second flush at the same counters adds nothing.
	o.Finish(c)
	if len(o.Samples) != 3 {
		t.Errorf("second Finish appended a sample")
	}

	if o.BQ.Total() != 25 {
		t.Errorf("BQ hist saw %d cycles, want 25", o.BQ.Total())
	}
	ts := o.Timeseries()
	if ts == nil || ts.Every != 10 || len(ts.Samples) != 3 {
		t.Errorf("timeseries section wrong: %+v", ts)
	}
	occ := o.Occupancy()
	if occ == nil || occ.BQ.Size != 8 || occ.BQ.Max != 2 || occ.BQ.Mean != 2 {
		t.Errorf("occupancy section wrong: %+v", occ)
	}
	if len(occ.BQ.Counts) != 3 {
		t.Errorf("BQ counts not trimmed after max: %v", occ.BQ.Counts)
	}
	if occ.TQ.Max != 0 || occ.TQ.Mean != 0 {
		t.Errorf("TQ occupancy wrong: %+v", occ.TQ)
	}
}

func TestObserverHistogramOnly(t *testing.T) {
	o := NewObserver(0, 4, 4, 4) // Every == 0: histograms but no series
	o.TickQueues(1, 1, 1, 1)
	if o.Due(1) {
		t.Error("observer with Every=0 must never be due")
	}
	o.Finish(IntervalCounters{Cycle: 1})
	if o.Timeseries() != nil {
		t.Error("no timeseries expected")
	}
	if o.Occupancy() == nil {
		t.Error("occupancy section expected")
	}
}
