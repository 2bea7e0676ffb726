package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, "test-payload", 1, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	payload := []byte(`{"x":1,"y":"two"}`)
	if err := s.Put("k1", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get("k1")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %s want %s", got, payload)
	}
	if _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	m := s.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Puts != 1 || m.Quarantines != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestPutReplacesEntry(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("k", []byte(`"old"`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte(`"new"`)); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get("k")
	if !ok || string(got) != `"new"` {
		t.Fatalf("got %q ok=%v, want \"new\"", got, ok)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

// corrupt applies one named mutation to the single entry file in dir.
func corrupt(t *testing.T, s *Store, key, how string) {
	t.Helper()
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	switch how {
	case "torn":
		data = data[:len(data)/2]
	case "truncated":
		data = nil
	case "bitflip":
		data[len(data)/3] ^= 0x10
	case "stale-envelope-version":
		data = bytes.Replace(data,
			[]byte(fmt.Sprintf(`"version":%d`, Version)),
			[]byte(fmt.Sprintf(`"version":%d`, Version+1)), 1)
	case "stale-payload-version":
		data = bytes.Replace(data, []byte(`"payloadVersion":1`), []byte(`"payloadVersion":99`), 1)
	case "wrong-payload-schema":
		data = bytes.Replace(data, []byte(`"payloadSchema":"test-payload"`), []byte(`"payloadSchema":"other"`), 1)
	case "checksum-stripped":
		var env map[string]json.RawMessage
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		delete(env, "sha256")
		data, err = json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
	case "payload-edit":
		// Valid JSON, valid envelope — only the checksum can catch it.
		data = bytes.Replace(data, []byte(`{"x":1`), []byte(`{"x":2`), 1)
	case "key-mismatch":
		data = bytes.Replace(data, []byte(`"key":"`+key+`"`), []byte(`"key":"imposter"`), 1)
	default:
		t.Fatalf("unknown corruption %q", how)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corruption: %v", err)
	}
}

func TestCorruptionQuarantines(t *testing.T) {
	cases := []string{
		"torn", "truncated", "bitflip", "stale-envelope-version",
		"stale-payload-version", "wrong-payload-schema",
		"checksum-stripped", "payload-edit", "key-mismatch",
	}
	for _, how := range cases {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			payload := []byte(`{"x":1,"y":"two"}`)
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, "k", how)

			got, ok, err := s.Get("k")
			if err != nil {
				t.Fatalf("corrupt Get must degrade to a miss, got error %v", err)
			}
			if ok {
				t.Fatalf("corrupt entry served as a hit: %s", got)
			}
			if q := s.Metrics().Quarantines; q != 1 {
				t.Fatalf("quarantines = %d, want 1", q)
			}
			// The entry is gone from the hot path and preserved (with a
			// reason) on the side.
			if _, ok, _ := s.Get("k"); ok {
				t.Fatal("entry still readable after quarantine")
			}
			qfiles, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.json*"))
			var reasons int
			for _, f := range qfiles {
				if strings.HasSuffix(f, ".reason") {
					reasons++
				}
			}
			if len(qfiles)-reasons != 1 || reasons != 1 {
				t.Fatalf("quarantine dir: %v", qfiles)
			}
			// Re-writing the key recovers cleanly.
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := s.Get("k"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("after re-Put: ok=%v got=%s", ok, got)
			}
		})
	}
}

func TestRepeatedQuarantineSuffixes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		corrupt(t, s, "k", "torn")
		if _, ok, _ := s.Get("k"); ok {
			t.Fatal("corrupt hit")
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.json*"))
	var entries int
	for _, f := range files {
		if !strings.HasSuffix(f, ".reason") {
			entries++
		}
	}
	if entries != 3 {
		t.Fatalf("want 3 quarantined copies, got %d: %v", entries, files)
	}
}

func TestTransientErrorsRetry(t *testing.T) {
	var fails, calls int
	s := open(t, t.TempDir(), WithBackoff([]time.Duration{0, 0, 0}))
	s.InjectOpError = func(op, path string) error {
		if op == "sync" {
			calls++
			if calls <= fails {
				return errors.New("injected EIO")
			}
		}
		return nil
	}

	// Two transient failures, third attempt lands.
	fails, calls = 2, 0
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatalf("Put should survive transient errors: %v", err)
	}
	if m := s.Metrics(); m.Retries != 2 || m.PutFailures != 0 {
		t.Fatalf("metrics after recovered Put: %+v", m)
	}
	if _, ok, _ := s.Get("k"); !ok {
		t.Fatal("recovered Put not readable")
	}

	// Persistent failure: retries exhaust, error surfaces, counted.
	fails, calls = 100, 0
	if err := s.Put("k2", []byte(`2`)); err == nil {
		t.Fatal("Put should fail after retry exhaustion")
	}
	if m := s.Metrics(); m.PutFailures != 1 {
		t.Fatalf("putFailures = %d, want 1", m.PutFailures)
	}
	// The failed write must not leave a visible (or temp) file behind.
	if _, ok, _ := s.Get("k2"); ok {
		t.Fatal("failed Put left a readable entry")
	}
	tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "entries", "*.tmp-*"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temps: %v", tmps)
	}

	s.InjectOpError = func(op, path string) error {
		if op == "read" {
			return errors.New("injected EIO")
		}
		return nil
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("Get should report persistent read failure")
	}
	if m := s.Metrics(); m.GetFailures != 1 {
		t.Fatalf("getFailures = %d, want 1", m.GetFailures)
	}
}

func TestOpenSweepsOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "entries", "deadbeef.json.tmp-12345")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir) // reopen sweeps
	if _, err := os.Lstat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan temp survived reopen: %v", err)
	}
	if got, ok, _ := s.Get("k"); !ok || string(got) != `1` {
		t.Fatalf("real entry damaged by sweep: ok=%v got=%s", ok, got)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	dir := t.TempDir()
	// Two handles on one directory model two processes; many goroutines
	// per handle model a parallel sweep.
	a := open(t, dir)
	b := open(t, dir)
	payload := []byte(`{"v":42}`)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, s := range []*Store{a, b} {
			wg.Add(1)
			go func(s *Store, i int) {
				defer wg.Done()
				key := fmt.Sprintf("k%d", i%4)
				if err := s.Put(key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok, err := s.Get(key); err != nil || (ok && !bytes.Equal(got, payload)) {
					t.Errorf("Get: ok=%v err=%v got=%s", ok, err, got)
				}
			}(s, i)
		}
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		got, ok, err := a.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("k%d after convergence: ok=%v err=%v got=%s", i, ok, err, got)
		}
	}
	if q := a.Metrics().Quarantines + b.Metrics().Quarantines; q != 0 {
		t.Fatalf("concurrent writers caused %d quarantines", q)
	}
	if n, _ := a.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
}

// TestHooksAndMetrics pins the observer surface added for the event
// journal and /metrics: OnQuarantine fires once per quarantined entry
// with its base name and reason, OnRetry fires once per retry attempt,
// and Metrics counts every hit, miss, put, quarantine and retry.
func TestHooksAndMetrics(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, WithBackoff([]time.Duration{time.Millisecond, time.Millisecond}))
	var mu sync.Mutex
	type q struct{ entry, reason string }
	var quarantines []q
	retries := 0
	s.OnQuarantine = func(entry, reason string) {
		mu.Lock()
		quarantines = append(quarantines, q{entry, reason})
		mu.Unlock()
	}
	s.OnRetry = func() {
		mu.Lock()
		retries++
		mu.Unlock()
	}

	if err := s.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk: the next Get must quarantine and fire
	// the hook with the entry's base name.
	path := s.entryPath("k")
	if err := os.WriteFile(path, []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("corrupt Get: ok=%v err=%v", ok, err)
	}
	if len(quarantines) != 1 {
		t.Fatalf("OnQuarantine fired %d times, want 1", len(quarantines))
	}
	if quarantines[0].entry != filepath.Base(path) || quarantines[0].reason == "" {
		t.Fatalf("OnQuarantine got %+v", quarantines[0])
	}

	// Caller-reported damage (the harness's payload-level Quarantine)
	// goes through the same hook.
	if err := s.Put("k2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	s.Quarantine("k2", "payload mismatch")
	if len(quarantines) != 2 || quarantines[1].reason != "payload mismatch" {
		t.Fatalf("quarantines after caller report: %+v", quarantines)
	}

	// Transient write errors fire OnRetry per attempt.
	fails := 2
	s.InjectOpError = func(op, path string) error {
		if op == "sync" && fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	}
	if err := s.Put("k3", []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if retries != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries)
	}

	// One miss (the corrupt read), three puts, two quarantines (the
	// corrupt read and the caller's report) and two retries.
	if got, want := s.Metrics(), (Metrics{Misses: 1, Puts: 3, Quarantines: 2, Retries: 2}); got != want {
		t.Errorf("Metrics() = %+v, want %+v", got, want)
	}
}

// TestKeyMismatchReasonNamesBothKeys: the .reason sidecar for a key
// mismatch records both sides — the key the entry claims and the key the
// lookup wanted — so the sidecar alone diagnoses an aliased or renamed
// entry without replaying the access.
func TestKeyMismatchReasonNamesBothKeys(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("k", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, "k", "key-mismatch")
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	reasons, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.reason"))
	if len(reasons) != 1 {
		t.Fatalf("reason sidecars: %v", reasons)
	}
	data, err := os.ReadFile(reasons[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`entry for "imposter"`, `want "k"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("reason %q missing %q", data, want)
		}
	}
}
