// Package obs is the observability layer: bounded histograms, an interval
// sampler producing deterministic time series and queue-occupancy
// histograms, a Chrome/Perfetto trace-event exporter, the Prometheus text
// renderer behind /metrics, and the host-resource sampler.
//
// Design rules:
//
//   - Disabled means free. Hist and the Observer are nil-safe: methods on a
//     nil receiver are no-ops that allocate nothing, and the engines guard
//     their per-cycle hooks with a single nil test. The overhead contract
//     is pinned by TestDisabledProbesAllocFree and the
//     BenchmarkPipelineObserved/BenchmarkPipelineThroughput pair.
//   - Deterministic output. Everything the engines record derives from
//     simulated time (cycles or retired instructions), never wall clock, so
//     the exported sections and trace files are byte-identical across -jobs
//     settings. Host samples are the one wall-clock series; they reach only
//     /metrics and the journal's informational events.
package obs

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
