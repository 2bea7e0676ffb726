package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome/Perfetto "Trace Event Format" export. The emitted file is the JSON
// object form ({"traceEvents": [...]}) that chrome://tracing and
// ui.perfetto.dev load directly. Timestamps are microseconds by convention;
// we map one simulated clock unit (cycle or instruction) to one
// microsecond, so trace time reads as simulated time.
//
// Determinism: events are emitted metadata-first, then stably sorted by
// timestamp (insertion order breaks ties), and args objects serialize with
// encoding/json's sorted keys — so a trace built from deterministic inputs
// is byte-identical across -jobs settings.

// TraceEvent is one trace-event record. Phases used here: "X" (complete
// span with a duration), "C" (counter), and "M" (metadata: process and
// thread names).
type TraceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Trace accumulates trace events for export.
type Trace struct {
	meta   []TraceEvent
	events []TraceEvent
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Len returns the number of events recorded (metadata included).
func (t *Trace) Len() int { return len(t.meta) + len(t.events) }

// NameProcess records the display name for a process row.
func (t *Trace) NameProcess(pid int, name string) {
	t.meta = append(t.meta, TraceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]interface{}{"name": name},
	})
}

// NameThread records the display name for a thread row within a process.
func (t *Trace) NameThread(pid, tid int, name string) {
	t.meta = append(t.meta, TraceEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]interface{}{"name": name},
	})
}

// Span records a complete ("X") event covering [ts, ts+dur). Zero-duration
// spans are widened to 1 so they stay visible and well-formed.
func (t *Trace) Span(pid, tid int, name, cat string, ts, dur uint64, args map[string]interface{}) {
	if dur == 0 {
		dur = 1
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur,
		PID: pid, TID: tid, Args: args,
	})
}

// Counter records a counter ("C") event: one or more named series values at
// ts, rendered by Perfetto as stacked counter tracks.
func (t *Trace) Counter(pid int, name string, ts uint64, values map[string]interface{}) {
	t.events = append(t.events, TraceEvent{
		Name: name, Ph: "C", TS: ts, PID: pid, Args: values,
	})
}

// document is the on-disk JSON object form.
type document struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// sorted returns metadata first, then events stably ordered by timestamp.
func (t *Trace) sorted() []TraceEvent {
	out := make([]TraceEvent, 0, t.Len())
	out = append(out, t.meta...)
	body := make([]TraceEvent, len(t.events))
	copy(body, t.events)
	sort.SliceStable(body, func(i, j int) bool { return body[i].TS < body[j].TS })
	return append(out, body...)
}

// Encode writes the trace as indented JSON with a trailing newline.
func (t *Trace) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(document{TraceEvents: t.sorted()}, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the trace to the file at path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace %s: %w", path, err)
	}
	return f.Close()
}

// ValidateTrace checks a serialized trace: it must decode as the JSON
// object form, every event must carry a known phase, and timestamps must be
// monotonically non-decreasing in file order (the writer's sort guarantee —
// drift here means a nondeterministic or hand-mangled trace). It returns
// the number of events.
func ValidateTrace(r io.Reader) (int, error) {
	var doc document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	var last uint64
	inBody := false
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if inBody {
				return 0, fmt.Errorf("obs: event %d: metadata after body events", i)
			}
			continue
		case "X", "C", "B", "E", "i", "I":
		default:
			return 0, fmt.Errorf("obs: event %d (%q): unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Name == "" {
			return 0, fmt.Errorf("obs: event %d: empty name", i)
		}
		if inBody && ev.TS < last {
			return 0, fmt.Errorf("obs: event %d (%q): timestamp %d goes backwards (previous %d)",
				i, ev.Name, ev.TS, last)
		}
		last, inBody = ev.TS, true
	}
	return len(doc.TraceEvents), nil
}

// ValidateTraceFile validates the trace at path and returns its event count.
func ValidateTraceFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ValidateTrace(f)
}
