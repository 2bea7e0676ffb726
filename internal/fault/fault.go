// Package fault defines the typed fault taxonomy of the simulation runtime.
//
// The paper makes BQ/VQ/TQ contents architectural state (§III-A): ordering
// violations, malformed save/restore images, and corrupted queue contents
// are program- or model-level faults that the runtime must *detect and
// report*, never conditions that may abort the process. Both execution
// engines — the functional emulator (the golden model) and the cycle-level
// pipeline — therefore return a *Fault instead of panicking: a typed fault
// kind, the underlying cause (e.g. a *core.ViolationError), and a machine-
// state Snapshot (PC, cycle, queue occupancies, the last retired
// instructions) for diagnostics.
//
// The package also provides the Watchdog used by both Run loops: a cycle
// budget plus a wall-clock deadline plus caller cancellation, so a corrupted
// trip count or a runaway loop surfaces as a WatchdogExpiry fault with a
// diagnostic dump rather than a hung sweep. A pipeline that stops retiring
// altogether reports a Deadlock fault instead.
package fault

import (
	"errors"
	"fmt"
	"strings"

	"cfd/internal/isa"
)

// Kind classifies a fault.
type Kind uint8

// Fault kinds.
const (
	// QueueViolation is a break of the ISA push/pop ordering rules on the
	// BQ, VQ, or TQ (§III-A): pop on empty, push on full, forward without
	// mark, or popping an overflowed TQ entry with the wrong instruction.
	QueueViolation Kind = iota
	// IllegalInstruction is an undefined opcode or an instruction fetch
	// from outside the program image.
	IllegalInstruction
	// BadMemoryAccess is a malformed memory operand — in practice a
	// corrupt save/restore queue image whose length register exceeds the
	// architectural queue size.
	BadMemoryAccess
	// WatchdogExpiry reports a Run loop stopped by its watchdog: cycle
	// budget exhausted, wall-clock deadline passed, or caller
	// cancellation. It depends on the run's budgets, not only on the spec.
	WatchdogExpiry
	// InvariantBreach is an internal model invariant failure — always a
	// simulator bug, reported with state for diagnosis.
	InvariantBreach
	// RuntimePanic is a Go panic that escaped an engine and was contained
	// by the harness.
	RuntimePanic
	// Deadlock reports a pipeline run in which nothing retired for the
	// stall limit (pipeline.ErrDeadlock). Unlike a watchdog expiry it is a
	// deterministic property of the program and the core. It comes after
	// RuntimePanic so the numeric kinds already persisted keep their
	// meaning.
	Deadlock
)

var kindNames = [...]string{
	QueueViolation:     "queue-violation",
	IllegalInstruction: "illegal-instruction",
	BadMemoryAccess:    "bad-memory-access",
	WatchdogExpiry:     "watchdog-expiry",
	InvariantBreach:    "invariant-breach",
	RuntimePanic:       "runtime-panic",
	Deadlock:           "deadlock",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// RetiredInst is one entry of the last-N retired instruction ring captured
// in a Snapshot.
type RetiredInst struct {
	PC   uint64 `json:"pc"`
	Text string `json:"text"`
}

// Snapshot is the machine state captured when a fault is raised. Queue
// occupancies are the engine's architectural lengths at fault time (for the
// pipeline: committed head through speculative tail, the fetch stall rule's
// length of §III-C3).
type Snapshot struct {
	Engine      string        `json:"engine"` // "pipeline" or "emu"
	PC          uint64        `json:"pc"`
	Cycle       uint64        `json:"cycle,omitempty"` // 0 for the emulator
	Retired     uint64        `json:"retired"`
	BQLen       int           `json:"bqLen"`
	VQLen       int           `json:"vqLen"`
	TQLen       int           `json:"tqLen"`
	TCR         uint64        `json:"tcr"`
	LastRetired []RetiredInst `json:"lastRetired,omitempty"` // oldest first
}

// Fault is a typed, diagnosable abnormal condition raised by an execution
// engine. It implements error; Unwrap exposes the underlying cause so
// errors.Is/As keep working (e.g. errors.As to *core.ViolationError).
type Fault struct {
	Kind Kind
	Msg  string // human summary; derived from Err when empty
	Err  error  // underlying cause, may be nil
	Snap Snapshot
	// Stack is the goroutine stack for RuntimePanic faults. It is kept out
	// of Error() — stacks carry addresses and goroutine IDs, which would
	// make otherwise-deterministic fault reports nondeterministic — and
	// rendered only by Dump().
	Stack string
}

// New builds a fault from a message.
func New(kind Kind, snap Snapshot, format string, args ...any) *Fault {
	return &Fault{Kind: kind, Msg: fmt.Sprintf(format, args...), Snap: snap}
}

// Wrap builds a fault around an underlying cause.
func Wrap(kind Kind, err error, snap Snapshot) *Fault {
	return &Fault{Kind: kind, Err: err, Snap: snap}
}

func (f *Fault) Error() string {
	msg := f.Msg
	if msg == "" && f.Err != nil {
		msg = f.Err.Error()
	}
	return fmt.Sprintf("fault[%s] %s: %s (pc %d, cycle %d, retired %d)",
		f.Kind, f.Snap.Engine, msg, f.Snap.PC, f.Snap.Cycle, f.Snap.Retired)
}

// Unwrap exposes the underlying cause for errors.Is / errors.As.
func (f *Fault) Unwrap() error { return f.Err }

// As extracts a *Fault from an error chain.
func As(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// Dump renders a multi-line diagnostic of the fault: the summary line, the
// queue occupancies, and the last retired instructions. This is the
// "graceful dump" both Run loops emit on watchdog expiry.
func (f *Fault) Dump() string {
	var b strings.Builder
	b.WriteString(f.Error())
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  queues: BQ %d, VQ %d, TQ %d entries; TCR %d\n",
		f.Snap.BQLen, f.Snap.VQLen, f.Snap.TQLen, f.Snap.TCR)
	if len(f.Snap.LastRetired) > 0 {
		b.WriteString("  last retired (oldest first):\n")
		for _, ri := range f.Snap.LastRetired {
			fmt.Fprintf(&b, "    pc %-6d %s\n", ri.PC, ri.Text)
		}
	}
	if f.Stack != "" {
		b.WriteString("  stack:\n")
		for _, line := range strings.Split(strings.TrimRight(f.Stack, "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	return b.String()
}

// FromPanic converts a recovered panic value into a RuntimePanic fault.
// stack is the goroutine stack at recovery time (trimmed to a bounded
// length); it is preserved on the fault for Dump but excluded from Error so
// fault messages stay deterministic.
func FromPanic(v any, stack []byte, snap Snapshot) *Fault {
	f := &Fault{Kind: RuntimePanic, Msg: fmt.Sprintf("panic: %v", v), Snap: snap}
	if len(stack) > 0 {
		const maxStack = 4096
		s := string(stack)
		if len(s) > maxStack {
			s = s[:maxStack] + "..."
		}
		f.Stack = s
	}
	if err, ok := v.(error); ok {
		f.Err = err
	}
	return f
}

// RingDepth is the number of retired instructions engines keep in their
// diagnostic rings for Snapshot.LastRetired.
const RingDepth = 8

// Ring keeps the last RingDepth retired instructions for fault snapshots.
// It stores raw (pc, inst) pairs, so recording on an engine's retire path
// never allocates; rendering happens only when a snapshot is taken.
type Ring struct {
	buf  [RingDepth]ringEntry
	next int
	full bool
}

type ringEntry struct {
	pc uint64
	in isa.Inst
}

// Record appends one retired instruction, overwriting the oldest once the
// ring is full.
func (r *Ring) Record(pc uint64, in isa.Inst) {
	r.buf[r.next] = ringEntry{pc, in}
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Last renders the recorded instructions, oldest first.
func (r *Ring) Last() []RetiredInst {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]RetiredInst, 0, n)
	emit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out = append(out, RetiredInst{PC: r.buf[i].pc, Text: r.buf[i].in.String()})
		}
	}
	if r.full {
		emit(r.next, len(r.buf))
	}
	emit(0, r.next)
	return out
}
