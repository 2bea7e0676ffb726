package journal

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cfd/internal/obs"
)

// TestRoundTrip pins the basic contract: events emitted through the bus
// land in the file in order, framed by the journal_open header and the
// journal_close trailer, and read back intact.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: SweepStart, Sweep: 1, Total: 2, Jobs: 4})
	j.Emit(Event{Type: SpecSubmit, Sweep: 1, Key: "a"})
	j.Emit(Event{Type: SpecDone, Sweep: 1, Key: "a", Status: "ok", Cycles: 100, Retired: 50, IPC: 0.5})
	j.Emit(Event{Type: SweepFinish, Sweep: 1, Total: 2, Completed: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6 (open + 4 + close)", len(events))
	}
	if events[0].Type != JournalOpen || events[0].Schema != Schema || events[0].Version != Version || events[0].Tool != "test" {
		t.Fatalf("bad header: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != JournalClose || last.Events != 5 {
		t.Fatalf("bad trailer: %+v", last)
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
		if ev.TS == "" {
			t.Fatalf("event %d: no timestamp", i)
		}
	}
	sum, err := Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Truncated || sum.Sweeps != 1 || sum.Done != 1 || sum.OK != 1 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if j.Events() != 6 {
		t.Fatalf("Events() = %d, want 6", j.Events())
	}
}

// TestNilJournalSafe pins the disabled contract: every method on a nil
// *Journal is a safe no-op.
func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Emit(Event{Type: SpecDone})
	if j.TryEmit(Event{Type: HostSample}) {
		t.Fatal("TryEmit on nil journal accepted")
	}
	j.Subscribe(func(Event) {})
	if j.Path() != "" || j.Events() != 0 || j.Dropped() != 0 || j.Err() != nil || j.Close() != nil {
		t.Fatal("nil journal leaked state")
	}
}

// TestCrashSafeFlush pins the crash-safety contract: durable events are
// readable from the file before Close — the state a SIGKILL leaves
// behind — while a trailing partial line never poisons the read.
func TestCrashSafeFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: SweepStart, Sweep: 1, Total: 1, Jobs: 1})
	j.Emit(Event{Type: SpecDone, Sweep: 1, Key: "k", Status: "ok"})
	// Wait for the writer to drain without closing (Events counts writes).
	waitFor(t, func() bool { return j.Events() == 3 })

	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d flushed events before Close, want 3", len(events))
	}
	sum, err := Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Truncated {
		t.Fatal("journal without trailer not reported truncated")
	}
	j.Close()

	// A torn final line (partial write at kill time) is ignored.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"event":"spec_done","key":"torn`)
	f.Close()
	again, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 4 { // 3 + close trailer; torn line dropped
		t.Fatalf("got %d events with torn tail, want 4", len(again))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestCloseIdempotent pins that double Close is safe and Emit after
// Close is a no-op.
func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: SpecDone, Key: "late"}) // must not panic or write
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want header+trailer", len(events))
	}
}

// TestValidateRejects pins the structural checks.
func TestValidateRejects(t *testing.T) {
	head := Event{Seq: 1, Type: JournalOpen, Schema: Schema, Version: Version}
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"no header", []Event{{Seq: 1, Type: SweepStart, Sweep: 1}}},
		{"bad schema", []Event{{Seq: 1, Type: JournalOpen, Schema: "other", Version: Version}}},
		{"bad version", []Event{{Seq: 1, Type: JournalOpen, Schema: Schema, Version: Version + 1}}},
		{"seq not increasing", []Event{head, {Seq: 1, Type: SweepStart, Sweep: 1}}},
		{"done without key", []Event{head, {Seq: 2, Type: SpecDone, Status: "ok"}}},
		{"done bad status", []Event{head, {Seq: 2, Type: SpecDone, Key: "k", Status: "meh"}}},
		{"fault without cause", []Event{head, {Seq: 2, Type: SpecDone, Key: "k", Status: "fault"}}},
		{"sweep without id", []Event{head, {Seq: 2, Type: SweepStart}}},
		{"host sample without stats", []Event{head, {Seq: 2, Type: HostSample}}},
		{"unknown type", []Event{head, {Seq: 2, Type: "mystery"}}},
		{"close mid-stream", []Event{head, {Seq: 2, Type: JournalClose}, {Seq: 3, Type: SweepStart, Sweep: 1}}},
	}
	for _, tc := range cases {
		if _, err := Validate(tc.events); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestTryEmitDrops pins that TryEmit counts drops instead of blocking
// when the bus is saturated: a subscriber wedges the writer goroutine,
// the flood fills the bus, and the excess drops.
func TestTryEmitDrops(t *testing.T) {
	j := New("test")
	block := make(chan struct{})
	j.Subscribe(func(Event) { <-block }) // wedge the writer until released
	hs := obs.ReadHostStats()
	accepted := 0
	const n = busDepth * 2
	for i := 0; i < n; i++ {
		if j.TryEmit(Event{Type: HostSample, Host: &hs}) {
			accepted++
		}
	}
	close(block)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("every TryEmit dropped")
	}
	dropped := int(j.Dropped())
	if dropped == 0 {
		t.Fatal("no TryEmit dropped with a wedged writer")
	}
	if accepted+dropped != n {
		t.Fatalf("accepted %d + dropped %d != %d", accepted, dropped, n)
	}
}

// TestFullBusNoDeadlock pins that the writer never waits on the lock an
// Emit holds while it blocks on a full bus. A subscriber parks the writer
// on its first event; one goroutine emits busDepth+2 events, so the bus
// fills and its last Emit blocks; Close queues behind it. Once the
// subscriber is released everything must drain and Close must return.
// The two short sleeps only make a journal whose writer takes that lock
// deadlock reliably; a correct journal passes whatever the timing.
func TestFullBusNoDeadlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j.Subscribe(func(ev Event) {
		if ev.Type != JournalOpen {
			once.Do(func() { close(parked); <-release })
		}
	})
	const n = busDepth + 2
	go func() {
		for i := 0; i < n; i++ {
			j.Emit(Event{Type: SpecSubmit, Sweep: 1, Key: "k"})
		}
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer never reached the subscriber: it deadlocked against a blocked Emit")
	}
	for len(j.ch) < cap(j.ch) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the last Emit block on the full bus
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	time.Sleep(20 * time.Millisecond) // let Close queue behind it
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the writer deadlocked against a blocked Emit")
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n+2 {
		t.Fatalf("got %d events, want %d (open + %d + close)", len(events), n+2, n)
	}
}

// TestSortedReplayCanonical pins the canonicalization: two journals of
// the same sweep content with different arrival orders, sequence
// numbers, timestamps, and jobs settings replay byte-identically, with
// informational events dropped.
func TestSortedReplayCanonical(t *testing.T) {
	hs := obs.ReadHostStats()
	mk := func(jobs int, order []Event) []Event {
		evs := []Event{{Type: JournalOpen, Schema: Schema, Version: Version, Tool: "test"}}
		evs = append(evs, Event{Type: SweepStart, Sweep: 1, Total: 2, Jobs: jobs})
		evs = append(evs, order...)
		evs = append(evs, Event{Type: HostSample, Host: &hs})
		evs = append(evs, Event{Type: SweepFinish, Sweep: 1, Total: 2, Completed: 2})
		evs = append(evs, Event{Type: JournalClose, Events: uint64(len(evs))})
		for i := range evs {
			evs[i].Seq = uint64(i + 1)
			evs[i].TS = "2026-01-01T00:00:00Z"
		}
		return evs
	}
	a := mk(1, []Event{
		{Type: SpecSubmit, Sweep: 1, Key: "a"},
		{Type: SpecDone, Sweep: 1, Key: "a", Status: "ok", Cycles: 10},
		{Type: SpecSubmit, Sweep: 1, Key: "b"},
		{Type: SpecDone, Sweep: 1, Key: "b", Status: "ok", Cycles: 20},
	})
	b := mk(8, []Event{
		{Type: SpecSubmit, Sweep: 1, Key: "b"},
		{Type: SpecSubmit, Sweep: 1, Key: "a"},
		{Type: SpecDone, Sweep: 1, Key: "b", Status: "ok", Cycles: 20},
		{Type: SpecDone, Sweep: 1, Key: "a", Status: "ok", Cycles: 10},
	})
	var wa, wb strings.Builder
	if err := Write(&wa, SortedReplay(a)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&wb, SortedReplay(b)); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatalf("replays differ:\n%s\nvs\n%s", wa.String(), wb.String())
	}
	if strings.Contains(wa.String(), "host_sample") {
		t.Fatal("replay kept an informational host_sample")
	}
	if strings.Contains(wa.String(), `"seq"`) || strings.Contains(wa.String(), `"ts"`) || strings.Contains(wa.String(), `"jobs"`) {
		t.Fatalf("replay kept informational fields:\n%s", wa.String())
	}
}

// TestRewriteSorted pins the on-disk canonicalization path.
func TestRewriteSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: SweepStart, Sweep: 1, Total: 2, Jobs: 2})
	j.Emit(Event{Type: SpecSubmit, Sweep: 1, Key: "b"})
	j.Emit(Event{Type: SpecSubmit, Sweep: 1, Key: "a"})
	j.Emit(Event{Type: SpecDone, Sweep: 1, Key: "b", Status: "ok"})
	j.Emit(Event{Type: SpecDone, Sweep: 1, Key: "a", Status: "ok"})
	j.Emit(Event{Type: SweepFinish, Sweep: 1, Total: 2, Completed: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := RewriteSorted(path); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, ev := range events {
		if ev.Type == SpecSubmit {
			keys = append(keys, ev.Key)
		}
		if ev.Seq != 0 || ev.TS != "" {
			t.Fatalf("informational field survived canonicalization: %+v", ev)
		}
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("submits not in key order: %v", keys)
	}
}

// TestCompletedKeys pins the resume-gate helper: stored completions only,
// keyed by store key when present, deduplicated and sorted.
func TestCompletedKeys(t *testing.T) {
	events := []Event{
		{Type: SpecDone, Key: "b", StoreKey: "b|n=1", Stored: true},
		{Type: SpecDone, Key: "a", StoreKey: "a|n=1", Stored: true},
		{Type: SpecDone, Key: "a", StoreKey: "a|n=1", Stored: true}, // dup
		{Type: SpecDone, Key: "c", Stored: false},                   // not persisted
		{Type: SpecDone, Key: "d"},                                  // no store attached
	}
	got := CompletedKeys(events, true)
	if len(got) != 2 || got[0] != "a|n=1" || got[1] != "b|n=1" {
		t.Fatalf("stored keys = %v", got)
	}
	all := CompletedKeys(events, false)
	if len(all) != 4 {
		t.Fatalf("all keys = %v", all)
	}
}
