package pipeline

import (
	"strings"
	"testing"

	"cfd/internal/mem"
)

func TestPipeviewTrace(t *testing.T) {
	const n = 50
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 41))
	core, err := New(testConfig(), condLoop(0x10000, 0x80000, n, 50), m, WithTraceWindow(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		t.Fatal(err)
	}
	evs := core.Trace()
	if len(evs) != 40 {
		t.Fatalf("trace collected %d events, want 40", len(evs))
	}
	sawSquashed := false
	for _, e := range evs {
		if e.Squashed {
			sawSquashed = true
			continue
		}
		if !(e.FetchAt <= e.RenameAt && e.RenameAt <= e.DoneAt && e.DoneAt <= e.RetireAt) {
			t.Errorf("seq %d: stage order violated: F%d R%d C%d X%d",
				e.Seq, e.FetchAt, e.RenameAt, e.DoneAt, e.RetireAt)
		}
		if e.IssueAt != 0 && (e.IssueAt < e.RenameAt || e.IssueAt > e.DoneAt) {
			t.Errorf("seq %d: issue out of order: R%d I%d C%d", e.Seq, e.RenameAt, e.IssueAt, e.DoneAt)
		}
	}
	if !sawSquashed {
		t.Log("no squashed uops in the first 40 (acceptable)")
	}
	view := core.Pipeview()
	for _, want := range []string{"cycle origin", "F", "X", "|"} {
		if !strings.Contains(view, want) {
			t.Errorf("Pipeview missing %q:\n%s", want, view)
		}
	}
	// The fetch-to-execute depth must be visible: for the first load,
	// issue happens no earlier than FrontEndDepth-1 cycles after fetch.
	for _, e := range evs {
		if strings.HasPrefix(e.Inst, "ld") && !e.Squashed && e.IssueAt > 0 {
			if gap := e.IssueAt - e.FetchAt; gap < uint64(testConfig().FrontEndDepth-1) {
				t.Errorf("fetch-to-issue gap %d below front-end depth", gap)
			}
			break
		}
	}
}

// TestPipeviewTraceWindow captures a mid-run window: the trace must skip
// the warm-up and render steady-state instructions only.
func TestPipeviewTraceWindow(t *testing.T) {
	const n = 200
	const start, limit = 500, 60
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 41))
	core, err := New(testConfig(), condLoop(0x10000, 0x80000, n, 50), m, WithTraceWindow(start, limit))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		t.Fatal(err)
	}
	evs := core.Trace()
	if len(evs) != limit {
		t.Fatalf("windowed trace collected %d events, want %d", len(evs), limit)
	}
	for i, e := range evs {
		// Every traced uop is a distinct instruction, so after skipping
		// `start` of them the sequence numbers must be past the warm-up.
		if e.Seq < start {
			t.Errorf("event %d: seq %d predates the window start %d", i, e.Seq, start)
		}
		if e.FetchAt == 0 {
			t.Errorf("event %d: mid-run instruction fetched at cycle 0", i)
		}
	}
	view := core.Pipeview()
	if !strings.Contains(view, "cycle origin") {
		t.Errorf("windowed Pipeview did not render:\n%s", view)
	}
	// The cycle origin is the window's first fetch, not the run's start.
	if strings.Contains(view, "cycle origin 0,") {
		t.Error("windowed Pipeview anchored at cycle 0 (window not applied)")
	}
}

func TestPipeviewWithoutTrace(t *testing.T) {
	core, err := New(testConfig(), condLoop(0x10000, 0x80000, 5, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(core.Pipeview(), "no trace") {
		t.Error("untraced Pipeview must say so")
	}
}
