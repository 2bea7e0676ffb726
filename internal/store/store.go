// Package store is a crash-safe, content-addressed, on-disk result store.
//
// The harness keys every simulation by its deterministic RunSpec key; this
// package persists one opaque JSON payload per key so completed work
// survives the process. Entries are written with a crash-safe protocol —
// write to a temp file in the same directory, fsync, then atomically
// rename, with one directory sync per batch of entries (PutBatch) — so a
// SIGKILL or power cut at any instant leaves either the previous state or
// the complete new entry, never a torn file that decodes.
//
// Every entry is an envelope carrying the store schema and version, the
// full key (the file name is only its SHA-256), the payload's declared
// schema and version, and a SHA-256 checksum over the exact payload bytes.
// Get re-verifies all of it: a torn, bit-flipped, truncated, stale, or
// mislabeled entry is detected, moved to a quarantine side directory for
// post-mortem, and reported as a miss — graceful degradation (the caller
// re-simulates), never a crash or a silently wrong result.
//
// Transient I/O errors are retried under a small bounded backoff before
// they surface; corruption is never retried (the bytes will not get
// better) and deterministic payload content is never second-guessed.
// Concurrent writers — goroutines or whole processes sharing the
// directory — are safe: temp names are unique per writer and the final
// rename is atomic, so the last complete write wins and readers only ever
// observe complete entries.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Envelope schema identification. Version bumps on any incompatible change
// to the envelope layout; stale-versioned entries quarantine on read.
const (
	Schema  = "cfd-store"
	Version = 1
)

// Subdirectories of a store root.
const (
	entriesDir    = "entries"
	quarantineDir = "quarantine"
)

// tmpPattern is the os.CreateTemp pattern for in-flight entry writes; the
// '*' makes every writer's temp name unique, so concurrent writers of the
// same key never collide before their atomic renames.
const tmpPattern = ".tmp-*"

// envelope is the on-disk form of one entry.
type envelope struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Key is the full store key; the entry file name is sha256(Key), so
	// the envelope records the preimage and Get can reject a mislabeled
	// or hash-colliding file.
	Key string `json:"key"`
	// PayloadSchema/PayloadVersion identify the payload's own schema (the
	// store treats payload bytes as opaque); entries written under a
	// different payload schema quarantine on read.
	PayloadSchema  string `json:"payloadSchema"`
	PayloadVersion int    `json:"payloadVersion"`
	// SHA256 is the hex checksum over the exact Payload bytes.
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Metrics is a snapshot of a Store's counters. Hits/Misses describe
// lookups; Quarantines counts corrupted entries detected and set aside;
// Retries counts transient-I/O retry attempts that followed a failure;
// PutFailures/GetFailures count operations that still failed after the
// bounded retries (the caller degrades gracefully: a failed Put keeps the
// result in memory only, a failed Get falls back to re-simulation).
type Metrics struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantines uint64 `json:"quarantines"`
	Retries     uint64 `json:"retries"`
	PutFailures uint64 `json:"putFailures,omitempty"`
	GetFailures uint64 `json:"getFailures,omitempty"`
}

// Store is one on-disk result store rooted at a directory. It is safe for
// concurrent use by multiple goroutines, and multiple processes may share
// one directory: per-key writes are atomic renames, so concurrent writers
// of the same key both converge to a complete, valid entry.
type Store struct {
	dir            string
	payloadSchema  string
	payloadVersion int
	backoff        []time.Duration

	// InjectOpError, when non-nil, is consulted before every filesystem
	// operation with the operation name ("read", "create", "write",
	// "sync", "rename") and target path; a returned error is treated as
	// that operation failing. It exists for tests and fault-injection
	// campaigns exercising the transient-I/O retry path; nil in
	// production. Set it before the store is shared between goroutines.
	InjectOpError func(op, path string) error

	// OnQuarantine, when non-nil, is called after an entry is set aside,
	// with the entry's base file name and the rejection reason. It fires
	// for both internally detected envelope damage and caller-reported
	// payload damage (Quarantine), so an event journal sees every
	// invalidation exactly once. Set before sharing the store; it runs
	// under the quarantine lock and must not call back into the store.
	OnQuarantine func(entry, reason string)

	// OnRetry, when non-nil, is called once per transient-I/O retry
	// attempt, after the Retries counter increments. Same discipline as
	// OnQuarantine: set before sharing, keep it cheap and non-reentrant.
	OnRetry func()

	hits        atomic.Uint64
	misses      atomic.Uint64
	puts        atomic.Uint64
	quarantines atomic.Uint64
	retries     atomic.Uint64
	putFailures atomic.Uint64
	getFailures atomic.Uint64

	// quarantineMu serializes quarantine-name probing so two detections of
	// the same entry cannot race to one side-file name.
	quarantineMu sync.Mutex
}

// Option configures Open.
type Option func(*Store)

// WithBackoff overrides the transient-I/O retry schedule: one retry per
// element, sleeping that element first. An empty (non-nil) schedule
// disables retries.
func WithBackoff(backoff []time.Duration) Option {
	return func(s *Store) { s.backoff = backoff }
}

// defaultBackoff bounds transient-I/O retries: three attempts beyond the
// first, under 40ms total sleep, so a wedged disk degrades the store to a
// pass-through instead of wedging the sweep.
var defaultBackoff = []time.Duration{1 * time.Millisecond, 8 * time.Millisecond, 30 * time.Millisecond}

// Open creates (or reopens) the store rooted at dir for payloads of the
// given schema and version, and sweeps any temp files a crashed writer
// left behind. The directory is created if missing.
func Open(dir, payloadSchema string, payloadVersion int, opts ...Option) (*Store, error) {
	s := &Store{
		dir:            dir,
		payloadSchema:  payloadSchema,
		payloadVersion: payloadVersion,
		backoff:        defaultBackoff,
	}
	for _, o := range opts {
		o(s)
	}
	for _, d := range []string{dir, filepath.Join(dir, entriesDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// Orphaned temp files are in-flight writes that never renamed (the
	// writer crashed or was killed); they are invisible to Get and safe to
	// drop. A concurrently live writer whose temp is swept simply fails
	// its rename and retries the whole write.
	tmps, err := filepath.Glob(filepath.Join(dir, entriesDir, "*"+tmpPattern[:4]+"*"))
	if err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Quarantines: s.quarantines.Load(),
		Retries:     s.retries.Load(),
		PutFailures: s.putFailures.Load(),
		GetFailures: s.getFailures.Load(),
	}
}

// Len returns the number of complete entries currently on disk.
func (s *Store) Len() (int, error) {
	des, err := os.ReadDir(filepath.Join(s.dir, entriesDir))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}

// entryPath returns the entry file for key: entries/sha256(key).json.
func (s *Store) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, entriesDir, hex.EncodeToString(sum[:])+".json")
}

// op runs one injectable filesystem step.
func (s *Store) op(name, path string, f func() error) error {
	if h := s.InjectOpError; h != nil {
		if err := h(name, path); err != nil {
			return err
		}
	}
	return f()
}

// withRetry runs f, retrying under the bounded backoff schedule on error.
// Every retry attempt (not the first try) increments the Retries counter.
func (s *Store) withRetry(f func() error) error {
	err := f()
	for _, d := range s.backoff {
		if err == nil {
			return nil
		}
		time.Sleep(d)
		s.retries.Add(1)
		if h := s.OnRetry; h != nil {
			h()
		}
		err = f()
	}
	return err
}

// Get returns the payload stored for key. ok is false on a miss — the key
// was never stored, or its entry was corrupt and has been quarantined. A
// non-nil error means the read itself kept failing after retries
// (corruption is not an error: it degrades to a miss).
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	path := s.entryPath(key)
	var data []byte
	err = s.withRetry(func() error {
		return s.op("read", path, func() error {
			var rerr error
			data, rerr = os.ReadFile(path)
			if errors.Is(rerr, fs.ErrNotExist) {
				// A miss is definitive, not transient: stop retrying.
				data = nil
				return nil
			}
			return rerr
		})
	})
	if err != nil {
		s.getFailures.Add(1)
		return nil, false, fmt.Errorf("store: get %s: %w", path, err)
	}
	if data == nil {
		s.misses.Add(1)
		return nil, false, nil
	}
	payload, reason := s.verify(key, data)
	if reason != "" {
		s.quarantine(path, reason)
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return payload, true, nil
}

// verify decodes one entry's envelope, checks it against key, and returns
// its payload, or a non-empty rejection reason when the entry must be
// quarantined.
func (s *Store) verify(key string, data []byte) (payload []byte, reason string) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, "malformed JSON (torn or truncated write): " + err.Error()
	}
	switch {
	case env.Schema != Schema:
		return nil, fmt.Sprintf("envelope schema %q, want %q", env.Schema, Schema)
	case env.Version != Version:
		return nil, fmt.Sprintf("envelope version %d, want %d", env.Version, Version)
	case env.Key != key:
		// Both sides: what the entry claims to hold and what the lookup
		// wanted, so a sidecar alone diagnoses a renamed or aliased key.
		return nil, fmt.Sprintf("key mismatch: entry for %q, want %q", env.Key, key)
	case env.PayloadSchema != s.payloadSchema:
		return nil, fmt.Sprintf("payload schema %q, want %q", env.PayloadSchema, s.payloadSchema)
	case env.PayloadVersion != s.payloadVersion:
		return nil, fmt.Sprintf("stale payload version %d, want %d", env.PayloadVersion, s.payloadVersion)
	case env.SHA256 == "":
		return nil, "checksum missing"
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Sprintf("checksum mismatch: payload %s, envelope %s", got[:12], env.SHA256)
	}
	return env.Payload, ""
}

// Entry is one key and payload of a PutBatch.
type Entry struct {
	Key     string
	Payload []byte
}

// Put stores payload under key: a PutBatch of one entry.
func (s *Store) Put(key string, payload []byte) error {
	return s.PutBatch([]Entry{{Key: key, Payload: payload}})[0]
}

// PutBatch stores every entry with the crash-safe protocol and
// group-commits their directory entries. Each entry is marshalled into its
// envelope, written to a uniquely named temp file in the entries
// directory, fsynced, closed and atomically renamed over its final name,
// replacing any existing entry for its key; a transient failure retries
// that entry's whole write. Then one best-effort directory sync covers
// every rename of the batch. It returns one error per entry: an entry
// whose error is nil is durable when PutBatch returns, and a persistent
// failure is counted for the caller to degrade on.
func (s *Store) PutBatch(entries []Entry) []error {
	errs := make([]error, len(entries))
	renamed := false
	for i, e := range entries {
		errs[i] = s.put(e.Key, e.Payload)
		renamed = renamed || errs[i] == nil
	}
	if renamed {
		s.syncDir()
	}
	return errs
}

// put writes one entry of a batch, up to and including its rename.
func (s *Store) put(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	env := envelope{
		Schema:         Schema,
		Version:        Version,
		Key:            key,
		PayloadSchema:  s.payloadSchema,
		PayloadVersion: s.payloadVersion,
		SHA256:         hex.EncodeToString(sum[:]),
		Payload:        json.RawMessage(payload),
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	path := s.entryPath(key)
	err = s.withRetry(func() error { return s.writeAtomic(path, data) })
	if err != nil {
		s.putFailures.Add(1)
		return fmt.Errorf("store: put %s: %w", path, err)
	}
	s.puts.Add(1)
	return nil
}

// writeAtomic performs one temp+fsync+rename attempt.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	var f *os.File
	if err := s.op("create", dir, func() error {
		var cerr error
		f, cerr = os.CreateTemp(dir, filepath.Base(path)+tmpPattern)
		return cerr
	}); err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.op("write", tmp, func() error {
		_, werr := f.Write(data)
		return werr
	}); err != nil {
		return fail(err)
	}
	// fsync before rename: the rename must never become visible ahead of
	// the bytes it names, or a crash could expose a complete-looking file
	// with torn contents.
	if err := s.op("sync", tmp, f.Sync); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := s.op("rename", path, func() error { return os.Rename(tmp, path) }); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir persists the entries directory, so the renames before it
// survive a power cut. It is best effort: failure here is not worth
// failing a put — the entries are already durable-enough for every crash
// short of power loss, and the next run would simply re-simulate.
func (s *Store) syncDir() {
	if d, err := os.Open(filepath.Join(s.dir, entriesDir)); err == nil {
		d.Sync()
		d.Close()
	}
}

// Quarantine moves the entry for key (if present) to the quarantine side
// directory. The store calls it internally on every corrupt read; callers
// that detect higher-level payload damage (e.g. a decoded result whose
// spec does not match) use it to invalidate the entry the same way.
func (s *Store) Quarantine(key, reason string) {
	s.quarantine(s.entryPath(key), reason)
}

// quarantine renames an entry file into quarantine/, pairing it with a
// .reason file describing why. Name collisions (the same entry corrupted
// repeatedly) get numeric suffixes.
func (s *Store) quarantine(path, reason string) {
	s.quarantineMu.Lock()
	defer s.quarantineMu.Unlock()
	base := filepath.Base(path)
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		dst := filepath.Join(s.dir, quarantineDir, name)
		if _, err := os.Lstat(dst); err == nil {
			continue // occupied; try the next suffix
		}
		if err := os.Rename(path, dst); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return // already gone (e.g. a racing quarantine won)
			}
			// Last resort: remove the corrupt entry so it cannot be read
			// again. Losing the post-mortem copy is acceptable; serving
			// corrupt data is not.
			os.Remove(path)
		} else {
			os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
		}
		s.quarantines.Add(1)
		if h := s.OnQuarantine; h != nil {
			h(base, reason)
		}
		return
	}
}
