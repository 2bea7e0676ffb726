package journal

import (
	"bytes"
	"encoding/json"
	"testing"

	"cfd/internal/obs"
)

// traceSpans renders events with Trace, checks the encoding validates, and
// returns the encoded bytes and the decoded spans in timeline order.
func traceSpans(t *testing.T, events []Event) ([]byte, []obs.TraceEvent) {
	t.Helper()
	var buf bytes.Buffer
	if err := Trace(events).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, buf.Bytes())
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans []obs.TraceEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return buf.Bytes(), spans
}

// doneEvent returns an ok spec_done for key in sweep 1, edited by mod.
func doneEvent(key string, mod func(*Event)) Event {
	ev := Event{Type: SpecDone, Sweep: 1, Key: key, Workload: key, Variant: "base", Config: "c", Status: "ok"}
	mod(&ev)
	return ev
}

// TestTraceFaultSpans: a failed spec renders one unit wide on the "fault"
// category with its fault kind, or "error" when only an error was
// journaled, and carries no counters.
func TestTraceFaultSpans(t *testing.T) {
	_, spans := traceSpans(t, []Event{
		doneEvent("a", func(ev *Event) { ev.Status, ev.Fault, ev.Error = "fault", "watchdog-expiry", "budget" }),
		doneEvent("b", func(ev *Event) { ev.Status, ev.Error = "fault", "boom" }),
	})
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	for i, want := range []string{"watchdog-expiry", "error"} {
		sp := spans[i]
		if sp.Cat != "fault" || sp.Dur != 1 || sp.TS != uint64(i) || sp.Args["fault"] != want {
			t.Errorf("span %d = %+v, want a 1-wide fault span at %d with kind %q", i, sp, i, want)
		}
		if _, ok := sp.Args["cycles"]; ok {
			t.Errorf("fault span %d carries cycles: %+v", i, sp.Args)
		}
	}
}

// TestTraceSpanSourceAndCacheHits: the span comes from the completion that
// materialized the result (here a store hit, arriving after a cache hit),
// cacheHits counts the key's cache-hit completions across sweeps, and a
// key seen only through cache hits still gets its span.
func TestTraceSpanSourceAndCacheHits(t *testing.T) {
	_, spans := traceSpans(t, []Event{
		{Type: SweepStart, Sweep: 1, Total: 3},
		doneEvent("a", func(ev *Event) { ev.CacheHit, ev.Cycles, ev.IPC = true, 1, 9 }),
		doneEvent("a", func(ev *Event) { ev.StoreHit, ev.Cycles, ev.IPC = true, 100, 1.5 }),
		doneEvent("b", func(ev *Event) { ev.CacheHit, ev.Cycles, ev.IPC = true, 40, 0.5 }),
		doneEvent("a", func(ev *Event) { ev.Sweep, ev.CacheHit, ev.Cycles, ev.IPC = 2, true, 1, 9 }),
	})
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	a, b := spans[0], spans[1]
	if a.Name != "a/base @ c" || a.Cat != "run" || a.TS != 0 || a.Dur != 100 ||
		a.Args["cycles"] != 100.0 || a.Args["ipc"] != 1.5 || a.Args["cacheHits"] != 2.0 {
		t.Errorf("span a = %+v, want the store hit's counters and 2 cache hits", a)
	}
	if b.TS != 100 || b.Dur != 40 || b.Args["cacheHits"] != 1.0 {
		t.Errorf("span b = %+v, want 40 wide at 100 with 1 cache hit", b)
	}
}

// TestTraceOrderIndependent: spans are laid end to end in key order, so
// any arrival order of the same events renders byte-identically.
func TestTraceOrderIndependent(t *testing.T) {
	events := []Event{
		doneEvent("c", func(ev *Event) { ev.Cycles, ev.IPC = 30, 1 }),
		doneEvent("a", func(ev *Event) { ev.Cycles, ev.IPC = 10, 1 }),
		doneEvent("a", func(ev *Event) { ev.CacheHit, ev.Cycles, ev.IPC = true, 10, 1 }),
		{Type: SpecSubmit, Sweep: 1, Key: "b"},
		doneEvent("b", func(ev *Event) { ev.Status, ev.Error = "fault", "boom" }),
	}
	reversed := make([]Event, len(events))
	for i, ev := range events {
		reversed[len(events)-1-i] = ev
	}
	want, spans := traceSpans(t, events)
	got, _ := traceSpans(t, reversed)
	if !bytes.Equal(got, want) {
		t.Errorf("trace depends on event order:\n%s\nvs\n%s", got, want)
	}
	var ts uint64
	for i, key := range []string{"a", "b", "c"} {
		if spans[i].Name != key+"/base @ c" || spans[i].TS != ts {
			t.Errorf("span %d = %s at %d, want %s at %d", i, spans[i].Name, spans[i].TS, key, ts)
		}
		ts += spans[i].Dur
	}
}
