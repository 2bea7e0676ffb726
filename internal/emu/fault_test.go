package emu

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cfd/internal/core"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// wantFault runs p to completion and asserts the run ends in a typed fault
// of the given kind, returning it for further inspection.
func wantFault(t *testing.T, p *prog.Program, kind fault.Kind, opts ...Option) *fault.Fault {
	t.Helper()
	m := New(p, mem.New(), opts...)
	err := m.Run(0)
	if err == nil {
		t.Fatalf("run completed cleanly, want %v fault", kind)
	}
	f, ok := fault.As(err)
	if !ok {
		t.Fatalf("error %v is not a *fault.Fault", err)
	}
	if f.Kind != kind {
		t.Fatalf("fault kind = %v, want %v (err: %v)", f.Kind, kind, err)
	}
	if f.Snap.Engine != "emu" {
		t.Fatalf("snapshot engine = %q, want emu", f.Snap.Engine)
	}
	// ISA violations halt the machine; a watchdog expiry leaves it
	// resumable (the program itself did nothing wrong).
	if kind != fault.WatchdogExpiry && !m.Halted {
		t.Fatal("machine not halted after fault")
	}
	return f
}

// wantViolation additionally unwraps the core.ViolationError and checks the
// queue and operation it blames.
func wantViolation(t *testing.T, p *prog.Program, queue, op string, opts ...Option) *fault.Fault {
	t.Helper()
	f := wantFault(t, p, fault.QueueViolation, opts...)
	var v *core.ViolationError
	if !errors.As(f, &v) {
		t.Fatalf("fault %v does not wrap a *core.ViolationError", f)
	}
	if v.Queue != queue || v.Op != op {
		t.Fatalf("violation blames %s/%s, want %s/%s (%v)", v.Queue, v.Op, queue, op, v)
	}
	return f
}

func TestFaultBQUnderflow(t *testing.T) {
	p := prog.NewBuilder().
		BranchBQ("done").Label("done").Halt().MustBuild()
	f := wantViolation(t, p, "BQ", "pop")
	if f.Snap.PC != 0 {
		t.Errorf("fault pc = %d, want 0", f.Snap.PC)
	}
	if f.Snap.BQLen != 0 {
		t.Errorf("snapshot BQ length = %d, want 0", f.Snap.BQLen)
	}
}

func TestFaultBQOverflow(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 1).
		PushBQ(1).PushBQ(1).PushBQ(1).
		Halt().MustBuild()
	f := wantViolation(t, p, "BQ", "push", WithQueueSizes(2, 2, 2))
	if f.Snap.PC != 3 {
		t.Errorf("fault pc = %d, want 3 (third push)", f.Snap.PC)
	}
	if f.Snap.BQLen != 2 {
		t.Errorf("snapshot BQ length = %d, want 2 (full)", f.Snap.BQLen)
	}
	if f.Snap.Retired != 3 {
		t.Errorf("snapshot retired = %d, want 3", f.Snap.Retired)
	}
}

func TestFaultVQUnderflow(t *testing.T) {
	p := prog.NewBuilder().PopVQ(5).Halt().MustBuild()
	wantViolation(t, p, "VQ", "pop")
}

func TestFaultVQOverflow(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 7).
		PushVQ(1).PushVQ(1).PushVQ(1).
		Halt().MustBuild()
	wantViolation(t, p, "VQ", "push", WithQueueSizes(2, 2, 2))
}

func TestFaultTQUnderflow(t *testing.T) {
	p := prog.NewBuilder().PopTQ().Halt().MustBuild()
	wantViolation(t, p, "TQ", "pop")
}

func TestFaultTQOverflow(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 3).
		PushTQ(1).PushTQ(1).PushTQ(1).
		Halt().MustBuild()
	wantViolation(t, p, "TQ", "push", WithQueueSizes(2, 2, 2))
}

func TestFaultForwardWithoutMark(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 1).PushBQ(1).
		ForwardBQ(). // no preceding MarkBQ
		Halt().MustBuild()
	f := wantViolation(t, p, "BQ", "forward")
	if !strings.Contains(f.Error(), "mark") {
		t.Errorf("forward fault does not mention the missing mark: %v", f)
	}
}

// TestFaultPopTQOverflowBit: a trip count wider than TQWidth sets the
// entry's overflow bit; consuming it with the non-OV pop form is an ISA
// violation (the program must use pop_tq_ov).
func TestFaultPopTQOverflowBit(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, core.MaxTripCount+1).
		PushTQ(1).
		PopTQ().
		Halt().MustBuild()
	f := wantViolation(t, p, "TQ", "pop_tq")
	if !strings.Contains(f.Error(), "overflow") {
		t.Errorf("fault does not mention the overflow bit: %v", f)
	}
	if f.Snap.PC != 2 {
		t.Errorf("fault pc = %d, want 2 (the pop_tq)", f.Snap.PC)
	}
}

// TestFaultRestoreBadImage: restoring a BQ image whose length byte exceeds
// the queue size is a malformed-image fault, not a panic.
func TestFaultRestoreBadImage(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 4096).
		Raw(isa.Inst{Op: isa.RestoreBQ, Rs1: 1}).
		Halt().MustBuild()
	m := New(p, mem.New(), WithQueueSizes(4, 4, 4))
	m.Mem.Write(4096, 1, 200) // length byte 200 > size 4
	err := m.Run(0)
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.BadMemoryAccess {
		t.Fatalf("err = %v, want bad-memory-access fault", err)
	}
}

func TestFaultUndefinedOpcode(t *testing.T) {
	p := prog.NewBuilder().Raw(isa.Inst{Op: isa.Op(250)}).Halt().MustBuild()
	wantFault(t, p, fault.IllegalInstruction)
}

// TestFaultSnapshotRing checks the snapshot carries the most recent retired
// instructions in order.
func TestFaultSnapshotRing(t *testing.T) {
	b := prog.NewBuilder()
	for i := 0; i < 12; i++ {
		b.Nop()
	}
	p := b.PopVQ(3).Halt().MustBuild()
	f := wantViolation(t, p, "VQ", "pop")
	last := f.Snap.LastRetired
	if len(last) != fault.RingDepth {
		t.Fatalf("ring holds %d entries, want %d", len(last), fault.RingDepth)
	}
	for i, r := range last {
		if want := uint64(12 - fault.RingDepth + i); r.PC != want {
			t.Errorf("ring[%d].PC = %d, want %d", i, r.PC, want)
		}
	}
}

func TestWatchdogMaxCycles(t *testing.T) {
	p := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	f := wantFault(t, p, fault.WatchdogExpiry,
		WithWatchdog(&fault.Watchdog{MaxCycles: 1000}))
	if f.Snap.Retired != 1000 {
		t.Errorf("watchdog fired at retired = %d, want exactly 1000", f.Snap.Retired)
	}
}

func TestWatchdogContextCancel(t *testing.T) {
	p := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(p, mem.New())
	err := m.RunCtx(ctx, 0)
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("err = %v, want watchdog-expiry fault", err)
	}
}

func TestWatchdogDeadline(t *testing.T) {
	p := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	m := New(p, mem.New(),
		WithWatchdog(&fault.Watchdog{Deadline: time.Now().Add(5 * time.Millisecond)}))
	err := m.Run(0)
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("err = %v, want watchdog-expiry fault", err)
	}
}

// TestFaultText pins the text of the emulator's watchdog and
// queue-violation faults: the engine and the pc appear once, in the
// fault's own suffix.
func TestFaultText(t *testing.T) {
	cases := []struct {
		name string
		p    *prog.Program
		kind fault.Kind
		opts []Option
		want string
	}{
		{"watchdog", prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild(), fault.WatchdogExpiry,
			[]Option{WithWatchdog(&fault.Watchdog{MaxCycles: 1000})},
			"fault[watchdog-expiry] emu: watchdog: instruction budget exhausted (pc 0, cycle 0, retired 1000)"},
		{"queue-violation", prog.NewBuilder().BranchBQ("done").Label("done").Halt().MustBuild(), fault.QueueViolation, nil,
			"fault[queue-violation] emu: branch_bq +1: cfd: BQ pop: queue empty (pc 0, cycle 0, retired 0)"},
	}
	for _, tc := range cases {
		f := wantFault(t, tc.p, tc.kind, tc.opts...)
		if got := f.Error(); got != tc.want {
			t.Errorf("%s fault text:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
