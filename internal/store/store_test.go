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
	t.Cleanup(func() { s.Close() })
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
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// recordOf returns the path of the log holding the record s serves for
// key, and where in it the record lies.
func recordOf(t *testing.T, s *Store, key string) (string, loc) {
	t.Helper()
	s.mu.Lock()
	at, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("no record for %q", key)
	}
	return s.logPath(at.log), at
}

// corrupt applies one named mutation, in place, to the record s serves for
// key. Raw damage (torn, truncated, bitflip) keeps the record's frame, whose
// checksum then fails. Content damage re-frames the record, as a writer of
// some other envelope would, so only the envelope checks can catch it; it
// keeps the record's length, so s's index still spans exactly the damaged
// record.
func corrupt(t *testing.T, s *Store, key, how string) {
	t.Helper()
	path, at := recordOf(t, s, key)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	rec := bytes.Clone(log[at.off : at.off+int64(at.n)])
	env := rec[frameLen : len(rec)-1]
	replace := func(old, new string) {
		if len(old) != len(new) || !bytes.Contains(env, []byte(old)) {
			t.Fatalf("cannot replace %s by %s in %s", old, new, env)
		}
		env = bytes.Replace(env, []byte(old), []byte(new), 1)
	}
	switch how {
	case "torn":
		rec = append(rec[:len(rec)/2], '\n')
	case "truncated":
		rec = []byte("\n")
	case "bitflip":
		rec[len(rec)/3] ^= 0x10
	case "stale-envelope-version":
		replace(fmt.Sprintf(`"version":%d`, Version), fmt.Sprintf(`"version":%d`, Version+1))
	case "stale-payload-version":
		replace(`"payloadVersion":1`, `"payloadVersion":9`)
	case "wrong-payload-schema":
		replace(`"payloadSchema":"test-payload"`, `"payloadSchema":"fake-payload"`)
	case "checksum-stripped":
		// Blank the member out: whitespace keeps the JSON well formed.
		i := bytes.Index(env, []byte(`"sha256":`))
		j := i + bytes.IndexByte(env[i:], ',') + 1
		copy(env[i:j], bytes.Repeat([]byte(" "), j-i))
	case "payload-edit":
		// Valid JSON, valid envelope — only the checksum can catch it.
		replace(`{"x":1`, `{"x":2`)
	case "key-mismatch":
		imposter := []byte(strings.Repeat("?", len(key)))
		copy(imposter, "imposter")
		replace(`"key":"`+key+`"`, `"key":"`+string(imposter)+`"`)
	default:
		t.Fatalf("unknown corruption %q", how)
	}
	switch how {
	case "torn", "truncated", "bitflip":
	default:
		rec = Frame(env)
	}
	out := append(append(bytes.Clone(log[:at.off]), rec...), log[at.off+int64(at.n):]...)
	if err := os.WriteFile(path, out, 0o600); err != nil {
		t.Fatalf("write corruption: %v", err)
	}
}

// quarantined returns the record copies in dir's quarantine directory and
// the number of .reason sidecars beside them.
func quarantined(t *testing.T, dir string) (copies []string, reasons int) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, ".reason") {
			reasons++
		} else {
			copies = append(copies, f)
		}
	}
	return copies, reasons
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
			if copies, reasons := quarantined(t, dir); len(copies) != 1 || reasons != 1 {
				t.Fatalf("quarantine dir: %v and %d reasons", copies, reasons)
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

// TestRepeatedQuarantineSuffixes: a key whose record is corrupted again
// after each re-Put keeps every quarantined copy, each named with its own
// record's @offset suffix.
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
	if copies, _ := quarantined(t, dir); len(copies) != 3 {
		t.Fatalf("want 3 quarantined copies, got %d: %v", len(copies), copies)
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
	// The failed write must not leave a readable record, or any of its
	// bytes, behind: the log still ends with k's record.
	if _, ok, _ := s.Get("k2"); ok {
		t.Fatal("failed Put left a readable entry")
	}
	path, at := recordOf(t, s, "k")
	if fi, err := os.Stat(path); err != nil || fi.Size() != at.off+int64(at.n) {
		t.Fatalf("log after the failed Put: %v, %v; want it to end at k's record (%d bytes)", fi.Size(), err, at.off+int64(at.n))
	}
	if _, ok, _ := open(t, s.Dir()).Get("k2"); ok {
		t.Fatal("failed Put readable from a fresh handle")
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

// TestOpenSkipsTornTail: a writer killed mid-append leaves its log's last
// record cut short, without its newline. A reopened store serves every
// complete record and never the cut one, and does not quarantine it: a cut
// final record is a crash, not damage.
func TestOpenSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte(`"`+k+`"`)); err != nil {
			t.Fatal(err)
		}
	}
	path, at := recordOf(t, s, "c")
	if err := os.Truncate(path, at.off+int64(at.n)/2); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	for _, k := range []string{"a", "b"} {
		if got, ok, _ := r.Get(k); !ok || string(got) != `"`+k+`"` {
			t.Fatalf("complete record %s after reopen: ok=%v got=%s", k, ok, got)
		}
	}
	if got, ok, err := r.Get("c"); ok || err != nil {
		t.Fatalf("cut record served: ok=%v err=%v got=%s", ok, err, got)
	}
	if q := r.Metrics().Quarantines; q != 0 {
		t.Fatalf("cut final record quarantined %d times", q)
	}
	if copies, reasons := quarantined(t, dir); len(copies)+reasons != 0 {
		t.Fatalf("quarantine dir after reopen: %v", copies)
	}
	// The reopened handle appends to a log of its own, so c is stored
	// whole again.
	if err := r.Put("c", []byte(`"c"`)); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := open(t, dir).Get("c"); !ok || string(got) != `"c"` {
		t.Fatalf("re-stored c: ok=%v got=%s", ok, got)
	}
}

// TestOldEntriesLayoutReadsEmpty: a directory in the one-file-per-entry
// layout reads as an empty store. Its entries are neither served nor
// quarantined, and each key is stored anew on its first Put.
func TestOldEntriesLayoutReadsEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		t.Fatal(err)
	}
	env := `{"schema":"cfd-store","version":1,"key":"k","payloadSchema":"test-payload","payloadVersion":1,"sha256":"x","payload":1}`
	for _, name := range []string{"2c70e12b7a0646f92279f427c7b38e7334d8e5389cff167a1dc30e73f826b683.json", "deadbeef.json.tmp-1"} {
		if err := os.WriteFile(filepath.Join(dir, "entries", name), []byte(env), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir)
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d over an old layout, want 0", n)
	}
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("old entry: ok=%v err=%v", ok, err)
	}
	if q := s.Metrics().Quarantines; q != 0 {
		t.Fatalf("old layout quarantined %d entries", q)
	}
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := open(t, dir).Get("k"); !ok || string(got) != `1` {
		t.Fatalf("re-stored k: ok=%v got=%s", ok, got)
	}
}

// TestPutBatchServedByFreshHandle: every entry of a PutBatch that returned
// nil is served by a handle opened afterwards, a later entry of a key
// replacing an earlier one. Every entry of a batch whose fsync keeps
// failing reports the failure, and no handle serves it; the failing
// handle's next batch lands after its last good one.
func TestPutBatchServedByFreshHandle(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, WithBackoff([]time.Duration{0}))
	for _, err := range s.PutBatch([]Entry{{"a", []byte(`1`)}, {"b", []byte(`2`)}, {"a", []byte(`3`)}}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	s.InjectOpError = func(op, path string) error {
		if op == "sync" {
			return errors.New("injected EIO")
		}
		return nil
	}
	for i, err := range s.PutBatch([]Entry{{"c", []byte(`4`)}, {"d", []byte(`5`)}}) {
		if err == nil {
			t.Fatalf("entry %d of a failed batch reported stored", i)
		}
	}
	if m := s.Metrics(); m.Puts != 3 || m.PutFailures != 2 || m.Retries != 1 {
		t.Fatalf("metrics %+v, want 3 puts, 2 failures and 1 retry", m)
	}
	s.InjectOpError = nil
	if err := s.Put("e", []byte(`6`)); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	for k, want := range map[string]string{"a": `3`, "b": `2`, "e": `6`} {
		if got, ok, _ := r.Get(k); !ok || string(got) != want {
			t.Errorf("%s: ok=%v got=%s, want %s", k, ok, got, want)
		}
	}
	for _, k := range []string{"c", "d"} {
		for _, h := range []*Store{s, r} {
			if _, ok, _ := h.Get(k); ok {
				t.Errorf("%s of the failed batch is served", k)
			}
		}
	}
}

// TestPutBatchLogHoldsFramedEnvelopes: a batch's log holds exactly Frame of
// each encodable entry's envelope, in entry order, and the handle serves
// every key from its own record.
func TestPutBatchLogHoldsFramedEnvelopes(t *testing.T) {
	s := open(t, t.TempDir())
	entries := []Entry{{"a", []byte(`1`)}, {"b", []byte(`{"x":[2,3]}`)}, {"bad", []byte(`{`)}, {"c", []byte(`"four"`)}}
	errs := s.PutBatch(entries)
	var want []byte
	for i, e := range entries {
		if e.Key == "bad" {
			if errs[i] == nil {
				t.Fatal("an entry whose payload is not JSON was stored")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		env, err := json.Marshal(s.envelope(e))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Frame(env)...)
	}
	path, _ := recordOf(t, s, "a")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log holds\n%s\nwant the framed envelopes\n%s", got, want)
	}
	for _, e := range entries[:2] {
		if p, ok, err := s.Get(e.Key); !ok || err != nil || !bytes.Equal(p, e.Payload) {
			t.Errorf("%s: ok=%v err=%v payload %s, want %s", e.Key, ok, err, p, e.Payload)
		}
	}
	if p, ok, _ := s.Get("c"); !ok || string(p) != `"four"` {
		t.Errorf("c: ok=%v payload %s", ok, p)
	}
}

// TestQuarantineIsReportedOnce: a quarantined record is neither served nor
// reported again by a later Open — whether Get caught it (a stale payload
// version), Open could not read its key (a record truncated to its
// newline), or the caller reported damage the envelope checks cannot see.
func TestQuarantineIsReportedOnce(t *testing.T) {
	for _, how := range []string{"stale-payload-version", "truncated", "caller"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			payload := []byte(`{"x":1,"y":"two"}`)
			for _, k := range []string{"k1", "k2"} {
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
			}
			want := []uint64{1, 0} // quarantines reported by each later handle
			if how == "caller" {
				s.Quarantine("k1", "payload spec mismatch")
				if _, ok, _ := s.Get("k1"); ok {
					t.Fatal("the reporting handle still serves k1")
				}
				want = []uint64{0, 0}
			} else {
				corrupt(t, s, "k1", how)
			}
			for i, w := range want {
				h := open(t, dir)
				var reports []string
				h.OnQuarantine = func(entry, reason string) { reports = append(reports, entry) }
				if _, ok, _ := h.Get("k1"); ok {
					t.Fatalf("handle %d serves the quarantined record", i)
				}
				if _, ok, _ := h.Get("k2"); !ok {
					t.Fatalf("handle %d lost the intact record", i)
				}
				if q := h.Metrics().Quarantines; q != w || uint64(len(reports)) != w {
					t.Fatalf("handle %d: %d quarantines and reports %v, want %d", i, q, reports, w)
				}
			}
			if copies, reasons := quarantined(t, dir); len(copies) != 1 || reasons != 1 {
				t.Fatalf("quarantine dir: %v and %d reasons", copies, reasons)
			}
		})
	}
}

// TestDamagedKeyIsQuarantined: a bit flipped inside a record's key would
// file the record under a key no one asks for. The record's frame catches
// it when Open indexes the log, so the record is quarantined, not lost.
func TestDamagedKeyIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("genuine", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	path, _ := recordOf(t, s, "genuine")
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log[bytes.Index(log, []byte(`"key":"genuine"`))+len(`"key":"`)] ^= 0x01 // genuine -> fenuine
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	for _, k := range []string{"genuine", "fenuine"} {
		if _, ok, _ := r.Get(k); ok {
			t.Fatalf("record with a damaged key served for %s", k)
		}
	}
	if q := r.Metrics().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
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
	if n := a.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// A third handle sees both logs, and every key once.
	if n := open(t, dir).Len(); n != 4 {
		t.Fatalf("Len of a fresh handle = %d, want 4", n)
	}
}

// TestGetWhileCommitterAppends: goroutines Get keys while one committer
// appends them in batches. Each Get either misses or serves the exact
// payload, never a torn or a foreign one, and once the committer is done
// every key is served. CI runs it under -race -count=10.
func TestGetWhileCommitterAppends(t *testing.T) {
	s := open(t, t.TempDir())
	const keys, batch, readers = 64, 4, 4
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"i":%d}`, i)) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < keys; i += batch {
			var b []Entry
			for j := i; j < i+batch; j++ {
				b = append(b, Entry{key(j), payload(j)})
			}
			for _, err := range s.PutBatch(b) {
				if err != nil {
					t.Error(err)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := r; i < keys; i += readers {
					got, ok, err := s.Get(key(i))
					if err != nil || (ok && !bytes.Equal(got, payload(i))) {
						t.Errorf("Get %s while appending: ok=%v err=%v got=%s", key(i), ok, err, got)
						return
					}
				}
			}
		}(r)
	}
	<-done
	wg.Wait()
	for i := 0; i < keys; i++ {
		if got, ok, err := s.Get(key(i)); !ok || err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("%s after the appends: ok=%v err=%v got=%s", key(i), ok, err, got)
		}
	}
	if m := s.Metrics(); m.Puts != keys || m.Quarantines != 0 {
		t.Fatalf("metrics %+v, want %d puts and no quarantines", m, keys)
	}
}

// TestHooksAndMetrics pins the observer surface added for the event
// journal and /metrics: OnQuarantine fires once per quarantined record
// with its quarantined copy's name and the reason, OnRetry fires once per
// retry attempt, and Metrics counts every hit, miss, put, quarantine and
// retry.
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
	// Corrupt the record on disk: the next Get must quarantine it and
	// fire the hook with the name of its quarantined copy.
	_, at := recordOf(t, s, "k")
	corrupt(t, s, "k", "torn")
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("corrupt Get: ok=%v err=%v", ok, err)
	}
	if len(quarantines) != 1 {
		t.Fatalf("OnQuarantine fired %d times, want 1", len(quarantines))
	}
	copies, _ := quarantined(t, dir)
	if quarantines[0].entry != at.name() || len(copies) != 1 || filepath.Base(copies[0]) != at.name() || quarantines[0].reason == "" {
		t.Fatalf("OnQuarantine got %+v; quarantined %v", quarantines[0], copies)
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
	if err := s.Put("original", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, "original", "key-mismatch")
	if _, ok, _ := s.Get("original"); ok {
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
	for _, want := range []string{`entry for "imposter"`, `want "original"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("reason %q missing %q", data, want)
		}
	}
}
