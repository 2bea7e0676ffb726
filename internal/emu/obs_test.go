package emu

import (
	"math/rand"
	"reflect"
	"testing"

	"cfd/internal/core"
	"cfd/internal/mem"
	"cfd/internal/obs"
)

func obsEmuRun(t testing.TB, every uint64) *Machine {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(rng.Intn(100))
	}
	const aBase, bBase, k = 0x1000, 0x8000, 50
	mm := mem.New()
	mm.WriteUint64s(aBase, vals)
	o := obs.NewObserver(every, core.DefaultBQSize, core.DefaultVQSize, core.DefaultTQSize)
	m := New(cfdConditional(aBase, bBase, int64(len(vals)), k), mm, WithObserver(o))
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	m.FinishObservation()
	return m
}

func TestMachineObserver(t *testing.T) {
	const every = 32
	m := obsEmuRun(t, every)
	o := m.Observer()

	// On the instruction clock, every retirement is one tick.
	if o.BQ.Total() != m.Retired {
		t.Errorf("BQ histogram saw %d ticks, retired %d", o.BQ.Total(), m.Retired)
	}
	// The generator loop fills the BQ well before the consumer drains it.
	if o.BQ.Max() == 0 {
		t.Error("BQ never observed non-empty in a CFD program")
	}
	want := int(m.Retired / every)
	if m.Retired%every != 0 {
		want++
	}
	if len(o.Samples) != want {
		t.Fatalf("%d samples over %d retires at every=%d, want %d", len(o.Samples), m.Retired, every, want)
	}
	for i, s := range o.Samples {
		// IPC degenerates to 1 on the instruction clock.
		if s.IPC != 1 {
			t.Errorf("sample %d: emulator IPC %v, want exactly 1", i, s.IPC)
		}
		if s.BQOcc < 0 || s.BQOcc > float64(core.DefaultBQSize) {
			t.Errorf("sample %d: BQ occupancy %v out of bounds", i, s.BQOcc)
		}
	}
	if last := o.Samples[len(o.Samples)-1].Cycle; last != m.Retired {
		t.Errorf("last sample at tick %d, run retired %d", last, m.Retired)
	}
}

func TestMachineObserverDeterministic(t *testing.T) {
	a := obsEmuRun(t, 16).Observer()
	b := obsEmuRun(t, 16).Observer()
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Error("samples differ between identical runs")
	}
	if !reflect.DeepEqual(a.Occupancy(), b.Occupancy()) {
		t.Error("occupancy differs between identical runs")
	}
}
