// Package serve is the live-exposition slice of cfdserve (ROADMAP item
// 3): a loopback HTTP server that makes a running sweep inspectable
// without touching its deterministic artifacts.
//
//   - GET /metrics — Prometheus text exposition of the counters /status
//     reports: runner-cache counters, persistent-store counters, and the
//     host sampler's last sample.
//   - GET /status — a JSON snapshot of campaign state: per-sweep
//     progress with a simulated-only ETA, in-flight specs, runner and
//     store metrics, and the last N journal events.
//   - GET /debug/pprof/... — the standard Go profiling endpoints.
//
// Everything served is read-only and advisory; the sweep never blocks on
// a scrape. The Tracker folds the journal's event stream into the
// /status snapshot, so the server sees exactly what the journal records.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/store"
)

// lastEventsDepth bounds the /status journal-event ring.
const lastEventsDepth = 32

// SweepStatus is the live view of the current (or most recent) sweep.
type SweepStatus struct {
	Seq       uint64 `json:"seq"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// Simulated counts completions that ran fresh (neither cache nor
	// store hits) — the denominator of the ETA estimate.
	Simulated  int     `json:"simulated"`
	StoreHits  int     `json:"storeHits"`
	CacheHits  int     `json:"cacheHits"`
	Running    bool    `json:"running"`
	ElapsedSec float64 `json:"elapsedSec"`
	// ETASec estimates time to sweep completion from simulated-only
	// completions (store and cache hits are near-instant and would skew
	// a naive per-spec average); -1 when there is no basis yet.
	ETASec float64 `json:"etaSec"`
}

// Status is the /status document.
type Status struct {
	Tool      string    `json:"tool"`
	StartedAt time.Time `json:"startedAt"`
	UptimeSec float64   `json:"uptimeSec"`

	Sweeps     uint64           `json:"sweeps"`
	SpecsDone  uint64           `json:"specsDone"`
	Faults     uint64           `json:"faults"`
	Sweep      *SweepStatus     `json:"sweep,omitempty"`
	InFlight   []string         `json:"inFlight,omitempty"`
	Runner     *harness.Metrics `json:"runner,omitempty"`
	Store      *store.Metrics   `json:"store,omitempty"`
	Journal    *JournalStatus   `json:"journal,omitempty"`
	LastEvents []journal.Event  `json:"lastEvents,omitempty"`
}

// JournalStatus points at the journal file backing the event stream.
type JournalStatus struct {
	Path    string `json:"path,omitempty"`
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// Tracker folds journal events into a live Status snapshot. Subscribe it
// to the journal bus; Snapshot is safe to call concurrently from the
// HTTP handlers.
type Tracker struct {
	mu      sync.Mutex
	started time.Time

	sweeps    uint64
	specsDone uint64
	faults    uint64

	cur        *SweepStatus
	sweepStart time.Time
	inFlight   map[string]struct{}

	last []journal.Event
}

// NewTracker returns a Tracker anchored at now.
func NewTracker() *Tracker {
	return &Tracker{started: time.Now(), inFlight: make(map[string]struct{})}
}

// Observe folds one journal event into the tracker. It is the function
// to pass to journal.Subscribe.
func (t *Tracker) Observe(ev journal.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Type {
	case journal.SweepStart:
		t.sweeps++
		t.cur = &SweepStatus{Seq: ev.Sweep, Total: ev.Total, Running: true}
		t.sweepStart = time.Now()
		t.inFlight = make(map[string]struct{})
	case journal.SpecSubmit:
		t.inFlight[specLabel(ev)] = struct{}{}
	case journal.SpecDone:
		delete(t.inFlight, specLabel(ev))
		t.specsDone++
		if ev.Status == "fault" {
			t.faults++
		}
		if s := t.cur; s != nil && s.Running {
			s.Completed++
			if ev.Status == "fault" {
				s.Failed++
			}
			switch {
			case ev.CacheHit:
				s.CacheHits++
			case ev.StoreHit:
				s.StoreHits++
			default:
				s.Simulated++
			}
		}
	case journal.SweepFinish:
		if s := t.cur; s != nil && s.Seq == ev.Sweep {
			s.Running = false
		}
	}
	if len(t.last) == lastEventsDepth {
		copy(t.last, t.last[1:])
		t.last = t.last[:lastEventsDepth-1]
	}
	t.last = append(t.last, ev)
}

// specLabel is the human-readable in-flight label for a spec event.
func specLabel(ev journal.Event) string {
	return fmt.Sprintf("%s/%s @ %s", ev.Workload, ev.Variant, ev.Config)
}

// Snapshot assembles the tracker's half of the /status document.
func (t *Tracker) Snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		StartedAt: t.started,
		UptimeSec: time.Since(t.started).Seconds(),
		Sweeps:    t.sweeps,
		SpecsDone: t.specsDone,
		Faults:    t.faults,
	}
	if t.cur != nil {
		s := *t.cur
		if s.Running {
			s.ElapsedSec = time.Since(t.sweepStart).Seconds()
		}
		s.ETASec = ETA(s)
		st.Sweep = &s
	}
	for k := range t.inFlight {
		st.InFlight = append(st.InFlight, k)
	}
	sort.Strings(st.InFlight)
	st.LastEvents = append(st.LastEvents, t.last...)
	return st
}

// ETA estimates seconds to completion from simulated-only completions:
// elapsed / simulated gives the per-simulation cost, times the specs
// still outstanding. Store and cache hits are excluded from the
// denominator — they complete near-instantly and would collapse the
// estimate on a resumed sweep. -1 means "no basis yet".
func ETA(s SweepStatus) float64 {
	if !s.Running || s.Completed >= s.Total || s.Simulated == 0 {
		return -1
	}
	per := s.ElapsedSec / float64(s.Simulated)
	return per * float64(s.Total-s.Completed)
}

// Server is the live observability endpoint for one CLI invocation.
type Server struct {
	// Tool names the producing binary in /status.
	Tool string
	// Tracker backs the sweep half of /status; subscribe it to the
	// journal before starting the server.
	Tracker *Tracker
	// Runner (with its Store) and Journal, when set, add their live
	// counters to /status; the Runner's and the Store's also go to
	// /metrics.
	Runner  *harness.Runner
	Journal *journal.Journal
	// Host, when set, adds the sampler's last sample to /metrics.
	Host *obs.HostSampler

	srv *http.Server
}

// New assembles a Server; wire the pieces, then Start it.
func New(tool string, tr *Tracker) *Server {
	return &Server{Tool: tool, Tracker: tr}
}

// gauges reads the /metrics families, keyed by instrument name: the
// Runner's cache counters, its Store's counters, and the host sampler's
// last sample, each present only when its source is wired.
func (s *Server) gauges() map[string]float64 {
	g := make(map[string]float64)
	if r := s.Runner; r != nil {
		m := r.Metrics()
		g["harness.lookups"] = float64(m.Lookups)
		g["harness.simulations"] = float64(m.Simulations)
		g["harness.cache_hits"] = float64(m.CacheHits)
		if r.Store != nil {
			sm := r.Store.Metrics()
			g["store.hits"] = float64(sm.Hits)
			g["store.misses"] = float64(sm.Misses)
			g["store.puts"] = float64(sm.Puts)
			g["store.quarantines"] = float64(sm.Quarantines)
			g["store.retries"] = float64(sm.Retries)
			g["store.put_failures"] = float64(sm.PutFailures)
			g["store.get_failures"] = float64(sm.GetFailures)
		}
	}
	if s.Host != nil {
		hs, n := s.Host.Last()
		g["host.rss_bytes"] = float64(hs.RSSBytes)
		g["host.heap_alloc_bytes"] = float64(hs.HeapAllocBytes)
		g["host.gc_pause_total_ns"] = float64(hs.GCPauseTotalNS)
		g["host.gc_cycles"] = float64(hs.NumGC)
		g["host.goroutines"] = float64(hs.Goroutines)
		g["host.alloc_bytes_per_sec"] = hs.AllocRate
		g["host.samples"] = float64(n)
	}
	return g
}

// Handler returns the server's mux (exported for tests and embedding).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, s.gauges()) //nolint:errcheck // best-effort scrape
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		st := Status{Tool: s.Tool, StartedAt: time.Now()}
		if s.Tracker != nil {
			st = s.Tracker.Snapshot()
		}
		st.Tool = s.Tool
		if s.Runner != nil {
			m := s.Runner.Metrics()
			st.Runner = &m
			if s.Runner.Store != nil {
				sm := s.Runner.Store.Metrics()
				st.Store = &sm
			}
		}
		if s.Journal != nil {
			st.Journal = &JournalStatus{
				Path:    s.Journal.Path(),
				Events:  s.Journal.Events(),
				Dropped: s.Journal.Dropped(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st) //nolint:errcheck // best-effort scrape
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "cfd %s observability\n\n/metrics      Prometheus text exposition\n/status       live sweep status (JSON)\n/debug/pprof  Go profiling endpoints\n", s.Tool)
	})
	return mux
}

// Start listens on addr (e.g. "127.0.0.1:9190" or ":0") and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed
	return ln.Addr(), nil
}

// Shutdown stops the server, waiting up to the context's deadline for
// in-flight scrapes.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}
