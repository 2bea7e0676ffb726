package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfd/internal/config"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

// TestTrackerFolds pins the Tracker's event folding: sweep lifecycle,
// in-flight bookkeeping, hit/simulated classification, and the
// last-events ring.
func TestTrackerFolds(t *testing.T) {
	tr := NewTracker()
	tr.Observe(journal.Event{Type: journal.SweepStart, Sweep: 1, Total: 3, Jobs: 2})
	tr.Observe(journal.Event{Type: journal.SpecSubmit, Sweep: 1, Key: "a", Workload: "w", Variant: "base", Config: "cfg"})
	tr.Observe(journal.Event{Type: journal.SpecSubmit, Sweep: 1, Key: "b", Workload: "w", Variant: "cfd", Config: "cfg"})

	st := tr.Snapshot()
	if st.Sweeps != 1 || st.Sweep == nil || !st.Sweep.Running {
		t.Fatalf("mid-sweep snapshot: %+v", st)
	}
	if len(st.InFlight) != 2 {
		t.Fatalf("inFlight = %v", st.InFlight)
	}
	if st.Sweep.ETASec != -1 {
		t.Fatalf("ETA with no simulated completions = %v, want -1", st.Sweep.ETASec)
	}

	tr.Observe(journal.Event{Type: journal.SpecDone, Sweep: 1, Key: "a", Workload: "w", Variant: "base", Config: "cfg", Status: "ok"})
	tr.Observe(journal.Event{Type: journal.SpecDone, Sweep: 1, Key: "b", Workload: "w", Variant: "cfd", Config: "cfg", Status: "fault", Error: "boom", StoreHit: true})
	st = tr.Snapshot()
	if len(st.InFlight) != 0 {
		t.Fatalf("inFlight after done = %v", st.InFlight)
	}
	s := st.Sweep
	if s.Completed != 2 || s.Failed != 1 || s.Simulated != 1 || s.StoreHits != 1 {
		t.Fatalf("sweep counts: %+v", s)
	}
	if st.SpecsDone != 2 || st.Faults != 1 {
		t.Fatalf("totals: %+v", st)
	}
	if s.ETASec < 0 {
		t.Fatalf("ETA with a simulated completion = %v, want >= 0", s.ETASec)
	}

	tr.Observe(journal.Event{Type: journal.SweepFinish, Sweep: 1, Total: 3, Completed: 2})
	st = tr.Snapshot()
	if st.Sweep.Running {
		t.Fatal("sweep still running after finish")
	}
	if st.Sweep.ETASec != -1 {
		t.Fatalf("ETA after finish = %v, want -1", st.Sweep.ETASec)
	}
	if len(st.LastEvents) != 6 {
		t.Fatalf("lastEvents = %d, want 6", len(st.LastEvents))
	}
}

// TestTrackerRing pins the last-events ring bound.
func TestTrackerRing(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < lastEventsDepth*2; i++ {
		tr.Observe(journal.Event{Type: journal.StoreRetry, Seq: uint64(i + 1)})
	}
	st := tr.Snapshot()
	if len(st.LastEvents) != lastEventsDepth {
		t.Fatalf("ring holds %d, want %d", len(st.LastEvents), lastEventsDepth)
	}
	if st.LastEvents[lastEventsDepth-1].Seq != lastEventsDepth*2 {
		t.Fatal("ring did not keep the newest events")
	}
}

// TestEta pins the simulated-only estimator's edge cases.
func TestEta(t *testing.T) {
	cases := []struct {
		s    SweepStatus
		want float64
	}{
		{SweepStatus{Running: true, Total: 10, Completed: 5, Simulated: 0, ElapsedSec: 10}, -1},
		{SweepStatus{Running: false, Total: 10, Completed: 5, Simulated: 5, ElapsedSec: 10}, -1},
		{SweepStatus{Running: true, Total: 10, Completed: 10, Simulated: 10, ElapsedSec: 10}, -1},
		// Completed past Total: never a negative estimate.
		{SweepStatus{Running: true, Total: 10, Completed: 12, Simulated: 10, ElapsedSec: 10}, -1},
		// 10s / 5 simulated = 2s per sim, 5 outstanding → 10s.
		{SweepStatus{Running: true, Total: 10, Completed: 5, Simulated: 5, ElapsedSec: 10}, 10},
		// Resumed sweep: 8 store hits + 2 simulated in 4s → 2s/sim, 90 left → 180s.
		{SweepStatus{Running: true, Total: 100, Completed: 10, Simulated: 2, StoreHits: 8, ElapsedSec: 4}, 180},
	}
	for i, tc := range cases {
		if got := ETA(tc.s); got != tc.want {
			t.Errorf("case %d: ETA = %v, want %v", i, got, tc.want)
		}
	}
}

// metricFamilies are the /metrics families of a Runner with a Store and a
// started host sampler, in exposition order.
var metricFamilies = []string{
	"cfd_harness_cache_hits",
	"cfd_harness_lookups",
	"cfd_harness_simulations",
	"cfd_host_alloc_bytes_per_sec",
	"cfd_host_gc_cycles",
	"cfd_host_gc_pause_total_ns",
	"cfd_host_goroutines",
	"cfd_host_heap_alloc_bytes",
	"cfd_host_rss_bytes",
	"cfd_host_samples",
	"cfd_store_get_failures",
	"cfd_store_hits",
	"cfd_store_misses",
	"cfd_store_put_failures",
	"cfd_store_puts",
	"cfd_store_quarantines",
	"cfd_store_retries",
}

// TestServerEndpoints drives the HTTP surface end to end on a loopback
// listener: /metrics serves the Prometheus exposition of a real Runner,
// its Store and a started host sampler, /status decodes as JSON with the
// tracker's state folded in, /debug/pprof answers, and the index routes.
func TestServerEndpoints(t *testing.T) {
	r := harness.NewRunner(0.02)
	st, err := harness.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.Store = st
	spec := harness.RunSpec{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	host := obs.StartHostSampler(time.Hour, nil) // one immediate sample
	defer host.Stop()
	jr := journal.New("test")
	tr := NewTracker()
	jr.Subscribe(tr.Observe)

	srv := New("test", tr)
	srv.Runner = r
	srv.Journal = jr
	srv.Host = host
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := "http://" + addr.String()

	jr.Emit(journal.Event{Type: journal.SweepStart, Sweep: 1, Total: 2, Jobs: 1})
	jr.Emit(journal.Event{Type: journal.SpecDone, Sweep: 1, Key: "k", Workload: "w", Variant: "base", Config: "c", Status: "ok"})
	// The tracker observes off the journal's writer goroutine; wait for
	// the events to land before scraping.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := tr.Snapshot(); st.SpecsDone == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tracker never observed the journal events")
		}
		time.Sleep(time.Millisecond)
	}

	body := get(t, base+"/metrics")
	if names := familyNames(t, body); !reflect.DeepEqual(names, metricFamilies) {
		t.Fatalf("/metrics families:\n%v\nwant:\n%v", names, metricFamilies)
	}
	// The runner's, the store's and the sampler's counters reach the
	// scrape: one lookup that simulated and was persisted, one sample.
	for name, want := range map[string]string{
		"cfd_harness_lookups": "1", "cfd_harness_simulations": "1", "cfd_harness_cache_hits": "0",
		"cfd_store_misses": "1", "cfd_store_puts": "1", "cfd_store_hits": "0",
		"cfd_host_samples": "1",
	} {
		if !strings.Contains(body, "\n"+name+" "+want+"\n") {
			t.Errorf("/metrics lacks %s %s:\n%s", name, want, body)
		}
	}

	// Each family appears only when its source is wired: no Store, no
	// store families; no sampler, no host families.
	noStore := &Server{Runner: harness.NewRunner(0.02), Host: host}
	if got := familyNames(t, scrape(noStore)); !reflect.DeepEqual(got, without(metricFamilies, "cfd_store_")) {
		t.Errorf("without a Store, /metrics lists %v", got)
	}
	noHost := &Server{Runner: r}
	if got := familyNames(t, scrape(noHost)); !reflect.DeepEqual(got, without(metricFamilies, "cfd_host_")) {
		t.Errorf("without a sampler, /metrics lists %v", got)
	}

	var status Status
	if err := json.Unmarshal([]byte(get(t, base+"/status")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Tool != "test" || status.SpecsDone != 1 || status.Sweep == nil || status.Sweep.Total != 2 {
		t.Fatalf("/status = %+v", status)
	}
	if status.Journal == nil || status.Journal.Events == 0 {
		t.Fatalf("/status journal section = %+v", status.Journal)
	}
	if len(status.LastEvents) == 0 {
		t.Fatal("/status has no lastEvents")
	}
	if status.Runner == nil || status.Runner.Lookups != 1 || status.Store == nil || status.Store.Puts != 1 {
		t.Fatalf("/status runner %+v, store %+v", status.Runner, status.Store)
	}

	if body := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	if body := get(t, base+"/"); !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %q", body)
	}
	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}

	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// familyNames parses a /metrics body into its family names, failing
// unless every family is one "# TYPE <name> gauge" line followed by one
// "<name> <value>" sample.
func familyNames(t *testing.T, body string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines)%2 != 0 {
		t.Fatalf("odd line count in exposition:\n%s", body)
	}
	var names []string
	for i := 0; i < len(lines); i += 2 {
		name, ok := strings.CutPrefix(lines[i], "# TYPE ")
		name, ok2 := strings.CutSuffix(name, " gauge")
		sample := strings.Fields(lines[i+1])
		if !ok || !ok2 || len(sample) != 2 || sample[0] != name {
			t.Fatalf("family at line %d is not a gauge with one sample:\n%s\n%s", i+1, lines[i], lines[i+1])
		}
		names = append(names, name)
	}
	return names
}

// without returns names minus those with the given prefix.
func without(names []string, prefix string) []string {
	var out []string
	for _, n := range names {
		if !strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

// scrape serves one /metrics request from s's handler.
func scrape(s *Server) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSpecLabel pins the in-flight label format the /status consumers see.
func TestSpecLabel(t *testing.T) {
	ev := journal.Event{Workload: "w", Variant: "cfd", Config: "paper"}
	if got, want := specLabel(ev), "w/cfd @ paper"; got != want {
		t.Fatalf("specLabel = %q, want %q", got, want)
	}
}
