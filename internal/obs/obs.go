// Package obs is the observability layer: a zero-cost-when-disabled
// instrumentation API (counters, gauges, bounded histograms, probes), an
// interval sampler producing deterministic time series and queue-occupancy
// histograms, and a Chrome/Perfetto trace-event exporter.
//
// Design rules:
//
//   - Disabled means free. Every instrument and the Observer are nil-safe:
//     methods on a nil receiver are no-ops that allocate nothing, and the
//     engines guard their per-cycle hooks with a single nil test. The
//     overhead contract is pinned by TestDisabledProbesAllocFree and the
//     BenchmarkPipelineObserved/BenchmarkPipelineThroughput pair.
//   - Deterministic output. Everything recorded derives from simulated
//     time (cycles or retired instructions), never wall clock, so the
//     exported sections and trace files are byte-identical across -jobs
//     settings.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil Counter is a no-op. Counters are not synchronized: each engine
// run owns its instruments (the simulators are single-threaded per core).
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value. The zero value is ready to use; a nil
// Gauge is a no-op.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last recorded value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Hist is a bounded histogram of small non-negative integers (queue
// occupancies, widths). Bucket i counts observations of value i; the last
// bucket also absorbs overflow. A nil Hist is a no-op.
type Hist struct{ counts []uint64 }

// NewHist returns a histogram covering values 0..max (max+1 buckets).
func NewHist(max int) *Hist {
	if max < 0 {
		max = 0
	}
	return &Hist{counts: make([]uint64, max+1)}
}

// Observe records one observation of v, clamped into [0, max].
func (h *Hist) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n observations of v, clamped into [0, max].
func (h *Hist) ObserveN(v int, n uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v] += n
}

// Counts returns the raw buckets (nil for a nil Hist). The slice is owned
// by the histogram; callers must not mutate it.
func (h *Hist) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Total returns the number of observations.
func (h *Hist) Total() uint64 {
	var t uint64
	if h != nil {
		for _, c := range h.counts {
			t += c
		}
	}
	return t
}

// Mean returns the average observed value (0 with no observations).
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	var sum, n uint64
	for i, c := range h.counts {
		sum += uint64(i) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Max returns the largest observed value (0 with no observations).
func (h *Hist) Max() int {
	if h == nil {
		return 0
	}
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			return i
		}
	}
	return 0
}

// Probe is a named read-only metric sampled on demand — the pull-side
// complement to the push-side instruments. Engines and the harness register
// probes for state they already track (queue lengths, cache counters), so
// sampling costs nothing between reads.
type Probe interface {
	Value() float64
}

// ProbeFunc adapts a function to the Probe interface.
type ProbeFunc func() float64

// Value implements Probe.
func (f ProbeFunc) Value() float64 { return f() }

// Registry is a named collection of instruments and probes. A nil Registry
// hands out nil instruments, so instrumented code pays only nil checks when
// observability is off. Registration and snapshotting are mutex-guarded;
// the instruments themselves are not (single-writer per engine run).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	probes   map[string]Probe
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		probes:   make(map[string]Probe),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram covering 0..max, creating it on first
// use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Hist(name string, max int) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHist(max)
		r.hists[name] = h
	}
	return h
}

// RegisterProbe registers a named probe; re-registering a name replaces the
// previous probe. No-op on a nil registry.
func (r *Registry) RegisterProbe(name string, p Probe) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes[name] = p
}

// Snapshot reads every counter, gauge, and probe into a name→value map.
// Histograms are summarized as <name>.mean and <name>.max.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.probes)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, p := range r.probes {
		out[name] = p.Value()
	}
	for name, h := range r.hists {
		out[name+".mean"] = h.Mean()
		out[name+".max"] = float64(h.Max())
	}
	return out
}

// SortedNames returns the snapshot's names in sorted order — the
// deterministic iteration helper every exposition path uses, so no
// output format ever depends on Go map order.
func (r *Registry) SortedNames(snap map[string]float64) []string {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Each calls fn for every snapshot entry in sorted name order.
func (r *Registry) Each(fn func(name string, value float64)) {
	snap := r.Snapshot()
	for _, name := range r.SortedNames(snap) {
		fn(name, snap[name])
	}
}

// Names returns every registered instrument and probe name, sorted.
func (r *Registry) Names() []string {
	return r.SortedNames(r.Snapshot())
}

// Render formats a snapshot as sorted "name value" lines (debug output).
func (r *Registry) Render() string {
	out := ""
	r.Each(func(name string, value float64) {
		out += fmt.Sprintf("%-32s %g\n", name, value)
	})
	return out
}
