package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HostStats is one host-resource snapshot: where the *process* is, as
// opposed to where the *simulation* is. Everything here is wall-clock
// and scheduler dependent by nature, so host samples are informational
// only — they are journal-tagged and served on /metrics, but never enter
// deterministic artifacts.
type HostStats struct {
	// RSSBytes is the process resident set size (0 when the platform
	// offers no cheap way to read it; Linux reads /proc/self/statm).
	RSSBytes uint64 `json:"rssBytes"`
	// HeapAllocBytes is the live Go heap (runtime.MemStats.HeapAlloc).
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	// TotalAllocBytes is the cumulative allocation volume.
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	// GCPauseTotalNS is the cumulative stop-the-world pause time.
	GCPauseTotalNS uint64 `json:"gcPauseTotalNs"`
	// NumGC is the completed GC cycle count.
	NumGC uint32 `json:"numGC"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// AllocRate is the allocation rate in bytes/second over the last
	// sampling interval (0 on the first sample).
	AllocRate float64 `json:"allocBytesPerSec"`
}

// ReadHostStats takes one snapshot (AllocRate left 0 — rates need two).
func ReadHostStats() HostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HostStats{
		RSSBytes:        readRSS(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		GCPauseTotalNS:  ms.PauseTotalNs,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
	}
}

// readRSS returns the resident set size from /proc/self/statm (field 2,
// in pages), or 0 where that interface does not exist. Best-effort by
// design: host telemetry must never fail a run.
func readRSS() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// HostSampler periodically snapshots host-resource state, keeps the last
// snapshot for /metrics (Last is safe to call while the sampler runs), and
// hands each sample to an optional notify callback — the hook the CLIs use
// to journal-tag samples so a slow campaign can be correlated with host
// pressure. Off unless started; stop with Stop.
type HostSampler struct {
	every    time.Duration
	notify   func(HostStats)
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	last    HostStats
	samples uint64
}

// StartHostSampler takes an immediate first sample and starts sampling
// every `every` (floored at 10ms) until Stop. notify, when non-nil,
// receives every sample off the sampler's own goroutine.
func StartHostSampler(every time.Duration, notify func(HostStats)) *HostSampler {
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	h := &HostSampler{
		every:  every,
		notify: notify,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	first := h.sample(HostStats{}, time.Time{})
	go h.run(first)
	return h
}

// Last returns the most recent snapshot and how many snapshots the sampler
// has taken (zero values for a nil sampler).
func (h *HostSampler) Last() (HostStats, uint64) {
	if h == nil {
		return HostStats{}, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, h.samples
}

// Stop halts the sampler and waits for its goroutine to exit.
// Idempotent and nil-safe.
func (h *HostSampler) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

func (h *HostSampler) run(prev HostStats) {
	defer close(h.done)
	tick := time.NewTicker(h.every)
	defer tick.Stop()
	prevT := time.Now()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			prev = h.sample(prev, prevT)
			prevT = time.Now()
		}
	}
}

// sample takes one snapshot, keeps it as the last, and notifies.
func (h *HostSampler) sample(prev HostStats, prevT time.Time) HostStats {
	s := ReadHostStats()
	if !prevT.IsZero() {
		if dt := time.Since(prevT).Seconds(); dt > 0 {
			s.AllocRate = float64(s.TotalAllocBytes-prev.TotalAllocBytes) / dt
		}
	}
	h.mu.Lock()
	h.last = s
	h.samples++
	h.mu.Unlock()
	if h.notify != nil {
		h.notify(s)
	}
	return s
}
