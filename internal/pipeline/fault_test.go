package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/core"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// runForFault executes p and asserts the run dies with a typed fault of the
// given kind, returning it for inspection.
func runForFault(t *testing.T, cfg config.Core, p *prog.Program, kind fault.Kind, opts ...Option) *fault.Fault {
	t.Helper()
	c, err := New(cfg, p, mem.New(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(0)
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
	if f.Snap.Engine != "pipeline" {
		t.Fatalf("snapshot engine = %q, want pipeline", f.Snap.Engine)
	}
	return f
}

// wantPipelineViolation asserts a QueueViolation fault blaming queue/op.
func wantPipelineViolation(t *testing.T, cfg config.Core, p *prog.Program, queue, op string, opts ...Option) *fault.Fault {
	t.Helper()
	f := runForFault(t, cfg, p, fault.QueueViolation, opts...)
	var v *core.ViolationError
	if !errors.As(f, &v) {
		t.Fatalf("fault %v does not wrap a *core.ViolationError", f)
	}
	if v.Queue != queue || v.Op != op {
		t.Fatalf("violation blames %s/%s, want %s/%s (%v)", v.Queue, v.Op, queue, op, v)
	}
	return f
}

// TestPipelineFaultBQUnderflow: a branch_bq that retires without a matching
// push_bq is detected at retirement (the speculative pop never claimed an
// architectural entry).
func TestPipelineFaultBQUnderflow(t *testing.T) {
	p := prog.NewBuilder().
		Nop().
		BranchBQ("done").Label("done").Halt().MustBuild()
	f := wantPipelineViolation(t, testConfig(), p, "BQ", "branch_bq")
	if f.Snap.PC != 1 {
		t.Errorf("fault pc = %d, want 1 (the branch_bq)", f.Snap.PC)
	}
}

// TestPipelineFaultForwardWithoutMark matches the emulator's rule: a
// retired forward_bq with no preceding mark_bq is an ISA violation.
func TestPipelineFaultForwardWithoutMark(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, 1).PushBQ(1).
		ForwardBQ().
		Halt().MustBuild()
	f := wantPipelineViolation(t, testConfig(), p, "BQ", "forward")
	if !strings.Contains(f.Error(), "mark") {
		t.Errorf("forward fault does not mention the missing mark: %v", f)
	}
}

// TestPipelineFaultPopTQOverflowBit: fetch consuming a TQ entry whose
// overflow bit is set via the non-OV pop form faults, mirroring the
// emulator.
func TestPipelineFaultPopTQOverflowBit(t *testing.T) {
	p := prog.NewBuilder().
		Li(1, core.MaxTripCount+1).
		PushTQ(1).
		PopTQ().
		Halt().MustBuild()
	f := wantPipelineViolation(t, testConfig(), p, "TQ", "pop_tq")
	if !strings.Contains(f.Error(), "overflow") {
		t.Errorf("fault does not mention the overflow bit: %v", f)
	}
}

// TestPipelineFaultBQOverflowDeadlock: pushing past the architectural BQ
// size stalls fetch forever; the no-retirement detector converts the hang
// into a typed deadlock fault instead of spinning.
func TestPipelineFaultBQOverflowDeadlock(t *testing.T) {
	cfg := testConfig()
	cfg.BQSize = 4
	b := prog.NewBuilder().Li(1, 1)
	for i := 0; i < 2*cfg.BQSize+8; i++ {
		b.PushBQ(1)
	}
	p := b.Halt().MustBuild()
	f := runForFault(t, cfg, p, fault.Deadlock, WithDeadlockLimit(2000))
	if !errors.Is(f, ErrDeadlock) {
		t.Fatalf("fault %v does not wrap ErrDeadlock", f)
	}
	if f.Snap.BQLen != cfg.BQSize {
		t.Errorf("snapshot BQ length = %d, want full (%d)", f.Snap.BQLen, cfg.BQSize)
	}
}

// TestPipelineFaultVQUnderflowDeadlock: a pop_vq with nothing ever pushed
// can never issue; the deadlock detector reports it with state.
func TestPipelineFaultVQUnderflowDeadlock(t *testing.T) {
	p := prog.NewBuilder().PopVQ(5).Halt().MustBuild()
	f := runForFault(t, testConfig(), p, fault.Deadlock, WithDeadlockLimit(2000))
	if !errors.Is(f, ErrDeadlock) {
		t.Fatalf("fault %v does not wrap ErrDeadlock", f)
	}
	if f.Snap.VQLen != 0 {
		t.Errorf("snapshot VQ length = %d, want 0", f.Snap.VQLen)
	}
}

// TestPipelineFaultTQUnderflowDeadlock: same for the trip-count queue.
func TestPipelineFaultTQUnderflowDeadlock(t *testing.T) {
	p := prog.NewBuilder().PopTQ().Halt().MustBuild()
	f := runForFault(t, testConfig(), p, fault.Deadlock, WithDeadlockLimit(2000))
	if !errors.Is(f, ErrDeadlock) {
		t.Fatalf("fault %v does not wrap ErrDeadlock", f)
	}
}

func TestPipelineWatchdogMaxCycles(t *testing.T) {
	p := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	f := runForFault(t, testConfig(), p, fault.WatchdogExpiry,
		WithWatchdog(&fault.Watchdog{MaxCycles: 3000}))
	if errors.Is(f, ErrDeadlock) {
		t.Fatal("cycle-budget expiry misreported as deadlock")
	}
	if f.Snap.Cycle != 3000 {
		t.Errorf("watchdog fired at cycle %d, want exactly 3000", f.Snap.Cycle)
	}
}

func TestPipelineWatchdogContextCancel(t *testing.T) {
	p := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	c, err := New(testConfig(), p, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = c.RunCtx(ctx, 0)
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("err = %v, want watchdog-expiry fault", err)
	}
}

// TestPipelineFaultText pins the text of the pipeline's watchdog, deadlock
// and queue-violation faults: the engine, the pc and the cycle appear
// once, in the fault's own suffix.
func TestPipelineFaultText(t *testing.T) {
	spin := prog.NewBuilder().Label("spin").Jump("spin").Halt().MustBuild()
	cases := []struct {
		name string
		p    *prog.Program
		kind fault.Kind
		opts []Option
		want string
	}{
		{"watchdog", spin, fault.WatchdogExpiry, []Option{WithWatchdog(&fault.Watchdog{MaxCycles: 3000})},
			"fault[watchdog-expiry] pipeline: watchdog: cycle budget exhausted (pc 0, cycle 3000, retired 2990)"},
		{"deadlock", prog.NewBuilder().PopTQ().Halt().MustBuild(), fault.Deadlock, []Option{WithDeadlockLimit(2000)},
			"fault[deadlock] pipeline: no retirement progress (deadlock) (pc 0, cycle 2001, retired 0)"},
		{"queue-violation", prog.NewBuilder().Nop().BranchBQ("done").Label("done").Halt().MustBuild(), fault.QueueViolation, nil,
			"fault[queue-violation] pipeline: cfd: BQ branch_bq: retired with no pushed predicate (push/pop ordering violation) (pc 1, cycle 10, retired 1)"},
	}
	for _, tc := range cases {
		f := runForFault(t, testConfig(), tc.p, tc.kind, tc.opts...)
		if got := f.Error(); got != tc.want {
			t.Errorf("%s fault text:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
