package main

import (
	"sort"
	"sync"
	"time"
)

// Span recording for the traced run (--trace 1). Spans are opened and
// closed by the benchmark's own code around calls into each layer's
// public functions; nothing inside the simulator is instrumented. Spans
// stay in memory and are written out once, when the run ends.

// Non-layer span names. A window span brackets a stretch of traced wall
// time; a spec span is one replayed request (one RunSpec), the parent of
// the layer calls made for it. Every other name is a layer span.
const (
	spanWindow = "window"
	spanSpec   = "harness.spec"
)

type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"` // since the tracer's origin
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int           `json:"req"`    // request (spec index) the span serves, -1 for none
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced runs execute exactly the same benchmark code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed calls f inside a span and returns how long f took.
func timed(t *tracer, name string, parent, req int, f func()) time.Duration {
	id := t.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// layerTime is one span name's aggregate: how many spans, their summed
// duration, and their summed self time (duration minus the part of the
// interval that child spans cover).
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"totalS"`
	SelfS  float64 `json:"selfS"`
}

// summary aggregates the recorded spans by name. other is the wall time
// inside window spans that no layer span covers.
func (t *tracer) summary() (layers map[string]*layerTime, other float64) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	layers = make(map[string]*layerTime)
	var windows, layerSpans []span
	for i, s := range t.spans {
		if s.Name == spanWindow {
			windows = append(windows, s)
			continue
		}
		if s.Name != spanSpec {
			layerSpans = append(layerSpans, s)
		}
		lt := layers[s.Name]
		if lt == nil {
			lt = &layerTime{}
			layers[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalS += d.Seconds()
		lt.SelfS += (d - union(children[i])).Seconds()
	}
	for _, w := range windows {
		var inside []span
		for _, s := range layerSpans {
			if s.Start >= w.Start && s.End <= w.End {
				inside = append(inside, s)
			}
		}
		other += (w.End - w.Start - union(inside)).Seconds()
	}
	return layers, other
}

// union returns the length of the union of the spans' intervals.
func union(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}
