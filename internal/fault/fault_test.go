package fault

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfd/internal/isa"
)

func TestErrorFormatDeterministic(t *testing.T) {
	snap := Snapshot{Engine: "emu", PC: 42, Cycle: 0, Retired: 7, BQLen: 2}
	f := New(QueueViolation, snap, "BQ pop on empty queue")
	want := "fault[queue-violation] emu: BQ pop on empty queue (pc 42, cycle 0, retired 7)"
	if f.Error() != want {
		t.Fatalf("Error() = %q, want %q", f.Error(), want)
	}
}

func TestWrapUnwrap(t *testing.T) {
	base := errors.New("base cause")
	f := Wrap(BadMemoryAccess, fmt.Errorf("context: %w", base), Snapshot{Engine: "emu"})
	if !errors.Is(f, base) {
		t.Fatal("wrapped fault does not unwrap to the base cause")
	}
	got, ok := As(fmt.Errorf("outer: %w", f))
	if !ok || got != f {
		t.Fatal("As failed to recover the fault through wrapping")
	}
}

func TestAsNonFault(t *testing.T) {
	if _, ok := As(errors.New("plain")); ok {
		t.Fatal("As matched a non-fault error")
	}
	if _, ok := As(nil); ok {
		t.Fatal("As matched nil")
	}
}

// TestFromPanicKeepsStackOutOfError: panic stacks carry goroutine IDs and
// addresses; they must appear in Dump() but never in Error(), which feeds
// the deterministic JSON export.
func TestFromPanicKeepsStackOutOfError(t *testing.T) {
	stack := []byte("goroutine 17 [running]:\nmain.crash(0xc000012345)\n")
	f := FromPanic("index out of range", stack, Snapshot{Engine: "harness"})
	if f.Kind != RuntimePanic {
		t.Fatalf("kind = %v, want runtime-panic", f.Kind)
	}
	if strings.Contains(f.Error(), "goroutine") {
		t.Errorf("Error() leaks the stack: %q", f.Error())
	}
	if !strings.Contains(f.Dump(), "goroutine 17") {
		t.Errorf("Dump() lost the stack:\n%s", f.Dump())
	}
}

func TestFromPanicWrapsErrorValue(t *testing.T) {
	cause := errors.New("original")
	f := FromPanic(cause, nil, Snapshot{})
	if !errors.Is(f, cause) {
		t.Fatal("panicking with an error value should be unwrappable")
	}
}

func TestFromPanicTruncatesStack(t *testing.T) {
	f := FromPanic("x", []byte(strings.Repeat("a", 100_000)), Snapshot{})
	if len(f.Stack) > 5000 {
		t.Fatalf("stack kept %d bytes, want truncation", len(f.Stack))
	}
	if !strings.HasSuffix(f.Stack, "...") {
		t.Fatal("truncated stack missing ellipsis")
	}
}

func TestDumpRendersState(t *testing.T) {
	f := New(WatchdogExpiry, Snapshot{
		Engine: "pipeline", PC: 9, Cycle: 100, Retired: 50,
		BQLen: 1, VQLen: 2, TQLen: 3, TCR: 4,
		LastRetired: []RetiredInst{{PC: 8, Text: "nop"}},
	}, "budget gone")
	d := f.Dump()
	for _, want := range []string{"BQ 1", "VQ 2", "TQ 3", "TCR 4", "pc 8", "nop"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump() missing %q:\n%s", want, d)
		}
	}
}

func TestWatchdogNil(t *testing.T) {
	var w *Watchdog
	if _, expired := w.Check(1 << 40); expired {
		t.Fatal("nil watchdog fired")
	}
	if w.Enabled() {
		t.Fatal("nil watchdog claims enabled")
	}
}

func TestWatchdogZeroValueNeverFires(t *testing.T) {
	w := &Watchdog{}
	if w.Enabled() {
		t.Fatal("zero watchdog claims enabled")
	}
	for _, n := range []uint64{0, 1, DefaultPollEvery, 1 << 32} {
		if _, expired := w.Check(n); expired {
			t.Fatalf("zero watchdog fired at %d", n)
		}
	}
}

func TestWatchdogMaxCyclesExact(t *testing.T) {
	w := &Watchdog{MaxCycles: 100}
	if _, expired := w.Check(99); expired {
		t.Fatal("fired one cycle early")
	}
	reason, expired := w.Check(100)
	if !expired || !strings.Contains(reason, "cycle budget") {
		t.Fatalf("Check(100) = (%q, %v), want cycle-budget expiry", reason, expired)
	}
}

func TestWatchdogContextPolledAtInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &Watchdog{Ctx: ctx, PollEvery: 8}
	if _, expired := w.Check(9); expired {
		t.Fatal("context checked off the poll interval")
	}
	reason, expired := w.Check(16)
	if !expired || !strings.Contains(reason, "canceled") {
		t.Fatalf("Check(16) = (%q, %v), want cancellation", reason, expired)
	}
}

func TestWatchdogDeadline(t *testing.T) {
	base := time.Now()
	w := &Watchdog{Deadline: base.Add(time.Minute), PollEvery: 1}
	w.now = func() time.Time { return base }
	if _, expired := w.Check(1); expired {
		t.Fatal("fired before the deadline")
	}
	w.now = func() time.Time { return base.Add(2 * time.Minute) }
	reason, expired := w.Check(2)
	if !expired || !strings.Contains(reason, "deadline") {
		t.Fatalf("Check past deadline = (%q, %v), want deadline expiry", reason, expired)
	}
}

func TestWithTimeout(t *testing.T) {
	w := WithTimeout(500, 0)
	if w.MaxCycles != 500 || !w.Deadline.IsZero() {
		t.Fatalf("WithTimeout(500, 0) = %+v", w)
	}
	w = WithTimeout(0, time.Hour)
	if w.Deadline.IsZero() || !w.Enabled() {
		t.Fatalf("WithTimeout(0, 1h) = %+v", w)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{QueueViolation, IllegalInstruction, BadMemoryAccess,
		WatchdogExpiry, InvariantBreach, RuntimePanic, Deadlock} {
		s := k.String()
		if s == "" || strings.Contains(s, "Kind(") {
			t.Errorf("kind %d has no name: %q", k, s)
		}
	}
}

// TestRingOldestFirst pins the retired-instruction ring: a partial ring
// lists what it holds, and a wrapped ring keeps the last RingDepth
// instructions; both oldest first.
func TestRingOldestFirst(t *testing.T) {
	pcs := func(last []RetiredInst) []uint64 {
		out := []uint64{}
		for _, r := range last {
			out = append(out, r.PC)
		}
		return out
	}
	var r Ring
	if got := r.Last(); len(got) != 0 {
		t.Fatalf("empty ring lists %v", got)
	}
	for pc := uint64(1); pc <= 3; pc++ {
		r.Record(pc, isa.Inst{Op: isa.ADDI, Rd: 1, Imm: int64(pc)})
	}
	if got, want := pcs(r.Last()), []uint64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("partial ring lists pcs %v, want %v", got, want)
	}
	if got, want := r.Last()[2].Text, (isa.Inst{Op: isa.ADDI, Rd: 1, Imm: 3}).String(); got != want {
		t.Errorf("newest entry renders %q, want %q", got, want)
	}
	for pc := uint64(4); pc <= RingDepth+5; pc++ {
		r.Record(pc, isa.Inst{Op: isa.NOP})
	}
	want := []uint64{}
	for pc := uint64(6); pc <= RingDepth+5; pc++ {
		want = append(want, pc)
	}
	if got := pcs(r.Last()); !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped ring lists pcs %v, want %v", got, want)
	}
}

// TestWatchdogWithContext: a context that can never be done leaves the
// watchdog as it is; one that can is folded into a copy, and the
// caller's watchdog is not modified.
func TestWatchdogWithContext(t *testing.T) {
	w := &Watchdog{MaxCycles: 7}
	if got := w.WithContext(context.Background()); got != w {
		t.Error("a never-done context copied the watchdog")
	}
	var nilW *Watchdog
	if got := nilW.WithContext(context.Background()); got != nil {
		t.Error("a never-done context made a watchdog")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := w.WithContext(ctx)
	if got == w || got.MaxCycles != 7 || got.Ctx != ctx || w.Ctx != nil {
		t.Errorf("WithContext = %+v (caller's now %+v)", got, w)
	}
	if got := nilW.WithContext(ctx); got == nil || got.Ctx != ctx || got.MaxCycles != 0 {
		t.Errorf("nil watchdog WithContext = %+v", got)
	}
}
