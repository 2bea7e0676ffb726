package journal

import (
	"fmt"
	"sort"

	"cfd/internal/obs"
)

// Sweep trace rows: a single "sweep" track under the harness process.
const (
	tracePID = 1
	traceTID = 1
)

// Trace renders the spec_done events of a campaign's sweeps as a
// Chrome/Perfetto trace on a virtual timeline: one span per distinct spec
// key, laid end to end in key order, each as wide as the run's simulated
// cycles. A span is built from the key's spec_done that materialized the
// result (simulated, or restored from the store); a key seen only through
// cache hits takes the first of them. Spans carry the run's cycles and
// IPC, or, on the "fault" category, its fault kind ("error" for an
// untyped failure), plus a "cacheHits" arg counting the key's cache-hit
// spec_done events. Neither wall clock nor arrival order plays a part, so
// the trace is byte-identical for any -jobs setting.
func Trace(events []Event) *obs.Trace {
	type span struct {
		src  *Event
		hits uint64
	}
	spans := map[string]*span{}
	for i := range events {
		ev := &events[i]
		if ev.Type != SpecDone {
			continue
		}
		s := spans[ev.Key]
		if s == nil {
			s = &span{}
			spans[ev.Key] = s
		}
		if ev.CacheHit {
			s.hits++
		}
		if s.src == nil || s.src.CacheHit && !ev.CacheHit {
			s.src = ev
		}
	}
	keys := make([]string, 0, len(spans))
	for k := range spans {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tr := obs.NewTrace()
	tr.NameProcess(tracePID, "cfd experiment harness")
	tr.NameThread(tracePID, traceTID, "sweep (virtual time)")
	var ts uint64
	for _, k := range keys {
		s := spans[k]
		ev := s.src
		name := fmt.Sprintf("%s/%s @ %s", ev.Workload, ev.Variant, ev.Config)
		args := map[string]interface{}{"cacheHits": s.hits}
		cat, dur := "run", uint64(1)
		if ev.Status == "fault" {
			cat = "fault"
			kind := ev.Fault
			if kind == "" {
				kind = "error"
			}
			args["fault"] = kind
		} else {
			dur = ev.Cycles
			args["cycles"] = ev.Cycles
			args["ipc"] = ev.IPC
		}
		tr.Span(tracePID, traceTID, name, cat, ts, dur, args)
		ts += dur
	}
	return tr
}
