package obs

// Sample is one interval snapshot of an engine's rates: what the run was
// doing between the previous boundary and Cycle. All fields derive from
// simulated-time counters, so series are deterministic and byte-identical
// across -jobs settings.
type Sample struct {
	// Cycle is the interval's end boundary (exclusive) on the engine's
	// clock — pipeline cycles, or retired instructions for the emulator.
	Cycle uint64 `json:"cycle"`

	// IPC is retired instructions per cycle over the interval.
	IPC float64 `json:"ipc"`
	// MPKI is branch mispredictions per 1000 retired over the interval.
	MPKI float64 `json:"mpki"`

	// Stall fractions: the share of interval cycles the CPI stack charged
	// to generic fetch stall, BQ stall (full or miss), and TQ-miss stall.
	FetchStall float64 `json:"fetchStallFrac"`
	BQStall    float64 `json:"bqStallFrac"`
	TQStall    float64 `json:"tqStallFrac"`

	// Mean architectural queue occupancies over the interval.
	BQOcc float64 `json:"bqOcc"`
	VQOcc float64 `json:"vqOcc"`
	TQOcc float64 `json:"tqOcc"`

	// CacheMPKI is L1 data-cache misses per 1000 retired over the interval.
	CacheMPKI float64 `json:"cacheMpki"`
}

// IntervalCounters is the cumulative-counter snapshot an engine hands the
// Observer at each sample boundary; Record turns consecutive snapshots into
// one Sample of interval rates.
type IntervalCounters struct {
	Cycle            uint64
	Retired          uint64
	Mispredicts      uint64
	FetchStallCycles uint64
	BQStallCycles    uint64
	TQStallCycles    uint64
	CacheMisses      uint64
}

// Observer collects the time series and occupancy histograms for one engine
// run. A nil Observer is a valid disabled observer: every method is a no-op,
// so engines pay one nil test per cycle and allocate nothing.
//
// Protocol (one engine, single-threaded):
//
//	o := NewObserver(every, bqSize, vqSize, tqSize)
//	each cycle:  o.TickQueues(bqLen, vqLen, tqLen, 1)
//	             if o.Due(cycle) { o.Record(counters) }
//	at the end:  o.Finish(counters)   // flush the partial last interval
//
// An engine that fast-forwards over n cycles of frozen state hands the span
// over in one TickQueues(bqLen, vqLen, tqLen, n) call. The span must not
// cross a sample boundary: the engine stops it at the next one and calls
// Record there, as it would after cycling one by one.
type Observer struct {
	// Every is the sampling interval in engine clock units.
	Every uint64
	// Samples is the collected time series, one row per interval.
	Samples []Sample
	// BQ, VQ, TQ are full-run per-cycle occupancy histograms of the three
	// architectural queues (bucket i = cycles spent at occupancy i).
	BQ, VQ, TQ *Hist

	prev                IntervalCounters
	occBQ, occVQ, occTQ uint64 // interval occupancy integrals
}

// NewObserver returns an Observer sampling every `every` clock units, with
// occupancy histograms sized for the given queue capacities. every == 0
// disables interval sampling but still collects occupancy histograms.
func NewObserver(every uint64, bqSize, vqSize, tqSize int) *Observer {
	return &Observer{
		Every: every,
		BQ:    NewHist(bqSize),
		VQ:    NewHist(vqSize),
		TQ:    NewHist(tqSize),
	}
}

// TickQueues records n clock units at the given queue occupancies.
func (o *Observer) TickQueues(bq, vq, tq int, n uint64) {
	if o == nil {
		return
	}
	o.BQ.ObserveN(bq, n)
	o.VQ.ObserveN(vq, n)
	o.TQ.ObserveN(tq, n)
	o.occBQ += uint64(bq) * n
	o.occVQ += uint64(vq) * n
	o.occTQ += uint64(tq) * n
}

// Due reports whether cycle is a sample boundary.
func (o *Observer) Due(cycle uint64) bool {
	return o != nil && o.Every != 0 && cycle%o.Every == 0
}

// Record closes the current interval at the given cumulative counters and
// appends its Sample. Counters must be monotonic between calls.
func (o *Observer) Record(now IntervalCounters) {
	if o == nil {
		return
	}
	dc := now.Cycle - o.prev.Cycle
	if dc == 0 {
		return
	}
	fdc := float64(dc)
	dr := now.Retired - o.prev.Retired
	s := Sample{
		Cycle:      now.Cycle,
		IPC:        float64(dr) / fdc,
		FetchStall: float64(now.FetchStallCycles-o.prev.FetchStallCycles) / fdc,
		BQStall:    float64(now.BQStallCycles-o.prev.BQStallCycles) / fdc,
		TQStall:    float64(now.TQStallCycles-o.prev.TQStallCycles) / fdc,
		BQOcc:      float64(o.occBQ) / fdc,
		VQOcc:      float64(o.occVQ) / fdc,
		TQOcc:      float64(o.occTQ) / fdc,
	}
	if dr > 0 {
		s.MPKI = 1000 * float64(now.Mispredicts-o.prev.Mispredicts) / float64(dr)
		s.CacheMPKI = 1000 * float64(now.CacheMisses-o.prev.CacheMisses) / float64(dr)
	}
	o.Samples = append(o.Samples, s)
	o.prev = now
	o.occBQ, o.occVQ, o.occTQ = 0, 0, 0
}

// Finish flushes the partial final interval (no-op if the run ended exactly
// on a boundary or nothing elapsed since the last sample).
func (o *Observer) Finish(now IntervalCounters) {
	if o == nil || o.Every == 0 {
		return
	}
	o.Record(now)
}

// TimeseriesSection is the export form of an interval time series: the
// `timeseries` section of a cfd-results run.
type TimeseriesSection struct {
	Every   uint64   `json:"every"` // sampling interval in engine clock units
	Samples []Sample `json:"samples"`
}

// Timeseries returns the export section, or nil when sampling was off or
// produced no samples.
func (o *Observer) Timeseries() *TimeseriesSection {
	if o == nil || o.Every == 0 || len(o.Samples) == 0 {
		return nil
	}
	return &TimeseriesSection{Every: o.Every, Samples: o.Samples}
}

// QueueOccupancy is the export form of one queue's full-run occupancy
// histogram. Counts[i] is the number of clock units spent at occupancy i,
// with trailing zero buckets trimmed.
type QueueOccupancy struct {
	Size   int      `json:"size"` // architectural capacity
	Mean   float64  `json:"mean"`
	Max    int      `json:"max"`
	Counts []uint64 `json:"counts"`
}

// OccupancySection is the `occupancy` section of a cfd-results run: the
// full-run occupancy histograms of the three architectural queues.
type OccupancySection struct {
	BQ QueueOccupancy `json:"bq"`
	VQ QueueOccupancy `json:"vq"`
	TQ QueueOccupancy `json:"tq"`
}

func queueOccupancy(h *Hist) QueueOccupancy {
	q := QueueOccupancy{
		Size: len(h.Counts()) - 1,
		Mean: h.Mean(),
		Max:  h.Max(),
	}
	counts := h.Counts()[:h.Max()+1]
	q.Counts = make([]uint64, len(counts))
	copy(q.Counts, counts)
	return q
}

// Occupancy returns the export section, or nil when no cycles were observed.
func (o *Observer) Occupancy() *OccupancySection {
	if o == nil || o.BQ.Total() == 0 {
		return nil
	}
	return &OccupancySection{
		BQ: queueOccupancy(o.BQ),
		VQ: queueOccupancy(o.VQ),
		TQ: queueOccupancy(o.TQ),
	}
}
