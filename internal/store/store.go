// Package store is a crash-safe, content-addressed, on-disk result store.
//
// The harness keys every simulation by its deterministic RunSpec key; this
// package persists one opaque JSON payload per key so completed work
// survives the process. Each Store handle appends to one log of its own,
// logs/<creation time>-<random>.log, which its first write creates:
// PutBatch appends a whole batch of records with one write and one fsync,
// and reports success only after the fsync returns. A SIGKILL or power cut
// at any instant therefore leaves every record whose PutBatch returned,
// plus at most a final record without its newline, which no reader serves.
//
// A record is one line: the CRC-32C of its envelope in eight hex digits, a
// space, the envelope and a newline. The envelope carries the store schema
// and version, the full key, the payload's declared schema and version, and
// a SHA-256 checksum over the exact payload bytes. Open indexes every
// complete record of every log by key, later records winning, and Get
// reads the key's record and re-verifies all of it: a torn, bit-flipped,
// truncated, stale, or mislabeled record is copied to a quarantine side
// directory for post-mortem and reported as a miss — graceful degradation
// (the caller re-simulates), never a crash or a silently wrong result. The
// frame's checksum covers the key, which the envelope's does not, so a
// record whose key was damaged is caught when Open indexes it instead of
// being filed under a key no one asks for.
//
// Transient I/O errors are retried under a small bounded backoff before
// they surface; corruption is never retried (the bytes will not get
// better) and deterministic payload content is never second-guessed.
// Goroutines may share a handle, and processes may share a directory: each
// handle appends only to the log it created, so no two writers interleave
// bytes, and a handle serves the records that existed at its Open plus its
// own.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// Subdirectories of a store root, and the name suffix of a log.
const (
	logsDir       = "logs"
	quarantineDir = "quarantine"
	logExt        = ".log"
)

// frameLen is the length of a record's frame ahead of its envelope: the
// envelope's CRC-32C in eight hex digits and a space.
const frameLen = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the on-disk form of one entry.
type envelope struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Key is the full store key. Open files the record under it, and Get
	// rejects a record whose key is not the one it was filed under.
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

// Store is one handle on an on-disk result store rooted at a directory. It
// is safe for concurrent use by multiple goroutines, and multiple handles,
// in one process or many, may share one directory: each appends only to
// its own log, and two handles that store the same key converge, since
// either record serves it.
type Store struct {
	dir            string
	payloadSchema  string
	payloadVersion int
	backoff        []time.Duration

	// InjectOpError, when non-nil, is consulted before every filesystem
	// operation with the operation name ("read", "create", "write",
	// "sync") and target path; a returned error is treated as that
	// operation failing. It exists for tests and fault-injection
	// campaigns exercising the transient-I/O retry path; nil in
	// production. Set it before the store is shared between goroutines.
	InjectOpError func(op, path string) error

	// OnQuarantine, when non-nil, is called after a record is set aside,
	// with the name of its quarantined copy and the rejection reason. It
	// fires for both internally detected damage and caller-reported
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

	// mu guards index: the record serving each key, as Open found the
	// logs, extended by every PutBatch of this handle.
	mu    sync.Mutex
	index map[string]loc

	// damaged holds the records Open could not index. They are
	// quarantined on the handle's first Get or PutBatch, once the caller
	// has had the chance to set OnQuarantine.
	damaged  []damage
	reported sync.Once

	// wmu serializes appends to log, the handle's own log (nil until its
	// first PutBatch), whose first size bytes are committed records.
	wmu     sync.Mutex
	log     *os.File
	logName string
	size    int64

	// quarantineMu serializes quarantines, so OnQuarantine never runs
	// concurrently with itself.
	quarantineMu sync.Mutex
}

// loc is where a record lies: its log's file name, its offset in the log
// and its length, newline included.
type loc struct {
	log string
	off int64
	n   int
}

// name is the record's name in quarantine/.
func (l loc) name() string { return l.log + "@" + strconv.FormatInt(l.off, 10) }

// damage is a record Open could not index, with its bytes and why.
type damage struct {
	at     loc
	rec    []byte
	reason string
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
// given schema and version, and indexes the records of every log in it.
// The directory is created if missing.
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
	for _, d := range []string{filepath.Join(dir, logsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	var err error
	if s.index, s.damaged, err = scan(dir); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, nil
}

// Keys returns, sorted, the keys a handle opened on dir would serve,
// without opening one: it creates, writes and quarantines nothing.
func Keys(dir string) ([]string, error) {
	index, _, err := scan(dir)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys, nil
}

// scan indexes every complete record of every log under dir by key. It
// reads the logs in name order, which is creation order, and each log
// front to back, so a later record of a key replaces an earlier one. A
// final record without its newline is a crash mid-append and is skipped,
// as is every record quarantine/ already holds a copy of. Any other record
// whose frame or key does not decode is returned as damaged.
func scan(dir string) (map[string]loc, []damage, error) {
	quarantined := make(map[string]bool)
	qs, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	for _, q := range qs {
		quarantined[q.Name()] = true
	}
	logs, err := os.ReadDir(filepath.Join(dir, logsDir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	index := make(map[string]loc)
	var damaged []damage
	var line []byte
	for _, de := range logs {
		name := de.Name()
		if !strings.HasSuffix(name, logExt) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, logsDir, name))
		if err != nil {
			return nil, nil, err
		}
		br := bufio.NewReaderSize(f, 64<<10)
		var off int64
		for {
			if line, err = readLine(br, line[:0]); err != nil {
				break
			}
			at := loc{log: name, off: off, n: len(line)}
			off += int64(len(line))
			if len(quarantined) > 0 && quarantined[at.name()] {
				continue
			}
			key, kerr := recordKey(line)
			if kerr != nil {
				damaged = append(damaged, damage{at, bytes.Clone(line), kerr.Error()})
				continue
			}
			index[key] = at
		}
		f.Close()
		if err != io.EOF {
			return nil, nil, err
		}
	}
	return index, damaged, nil
}

// readLine appends the next line of br, newline included, to buf. At the
// end of the input it returns io.EOF with whatever followed the last
// newline.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// recordKey returns the key of a complete record. It decodes only the
// key: Get checks the rest. The frame vouches that a store wrote the
// envelope, and a store writes the key ahead of the payload, so the first
// "key" member is the envelope's own.
func recordKey(rec []byte) (string, error) {
	env, err := Unframe(rec)
	if err != nil {
		return "", err
	}
	var key string
	i := bytes.Index(env, []byte(`"key":`))
	if i < 0 || json.NewDecoder(bytes.NewReader(env[i+len(`"key":`):])).Decode(&key) != nil {
		return "", errors.New("envelope has no key")
	}
	return key, nil
}

// Frame returns env as one log record: the CRC-32C of env in eight hex
// digits, a space, env and a newline.
func Frame(env []byte) []byte {
	return appendFrame(make([]byte, 0, frameLen+len(env)+1), env)
}

// appendFrame appends env to buf as one log record.
func appendFrame(buf, env []byte) []byte {
	buf = fmt.Appendf(buf, "%08x ", crc32.Checksum(env, castagnoli))
	return append(append(buf, env...), '\n')
}

// Unframe returns the envelope inside rec, one log record, or why rec is
// damaged.
func Unframe(rec []byte) ([]byte, error) {
	n := len(rec)
	if n < frameLen+1 || rec[n-1] != '\n' || rec[frameLen-1] != ' ' {
		return nil, fmt.Errorf("torn record: %d bytes hold no frame", n)
	}
	env := rec[frameLen : n-1]
	if sum := fmt.Sprintf("%08x", crc32.Checksum(env, castagnoli)); string(rec[:frameLen-1]) != sum {
		return nil, fmt.Errorf("record checksum mismatch (torn or bit-flipped): envelope %s, frame %q", sum, rec[:frameLen-1])
	}
	return env, nil
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

// Len returns the number of keys the handle serves: those Open indexed
// plus those it stored since, less those it quarantined.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close closes the handle's log. Every record a PutBatch reported stored
// is already durable, so dropping a handle without Close loses nothing. A
// PutBatch after Close starts a new log.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// logPath returns the path of the log named name.
func (s *Store) logPath(name string) string { return filepath.Join(s.dir, logsDir, name) }

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

// reportDamage quarantines the records Open found damaged. It runs on the
// handle's first Get or PutBatch rather than in Open, so that an
// OnQuarantine set after Open hears of them.
func (s *Store) reportDamage() {
	s.reported.Do(func() {
		for _, d := range s.damaged {
			s.quarantine("", d.at, d.rec, d.reason)
		}
		s.damaged = nil
	})
}

// Get returns the payload stored for key. ok is false on a miss — the key
// was never stored, or its record was corrupt and has been quarantined. A
// key the index does not hold misses without touching the disk. A non-nil
// error means the read itself kept failing after retries (corruption is
// not an error: it degrades to a miss).
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	s.reportDamage()
	s.mu.Lock()
	at, found := s.index[key]
	s.mu.Unlock()
	if !found {
		s.misses.Add(1)
		return nil, false, nil
	}
	path := s.logPath(at.log)
	var rec []byte
	err = s.withRetry(func() error {
		return s.op("read", path, func() error {
			var rerr error
			rec, rerr = s.read(at)
			if errors.Is(rerr, fs.ErrNotExist) {
				// The log is gone: a miss is definitive, not transient.
				rec = nil
				return nil
			}
			return rerr
		})
	})
	if err != nil {
		s.getFailures.Add(1)
		return nil, false, fmt.Errorf("store: get %s: %w", path, err)
	}
	if rec == nil {
		s.misses.Add(1)
		return nil, false, nil
	}
	payload, reason := s.verify(key, rec)
	if reason != "" {
		s.quarantine(key, at, rec, reason)
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return payload, true, nil
}

// read returns the bytes of the record at at. A log cut short since Open
// yields fewer bytes, which verify then rejects.
func (s *Store) read(at loc) ([]byte, error) {
	f, err := os.Open(s.logPath(at.log))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec := make([]byte, at.n)
	n, err := f.ReadAt(rec, at.off)
	if err == io.EOF {
		err = nil
	}
	return rec[:n], err
}

// verify checks one record's frame, decodes its envelope, checks it
// against key, and returns its payload, or a non-empty rejection reason
// when the record must be quarantined.
func (s *Store) verify(key string, rec []byte) (payload []byte, reason string) {
	data, err := Unframe(rec)
	if err != nil {
		return nil, err.Error()
	}
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

// PutBatch stores every entry as one append to the handle's log: each
// entry's envelope becomes a record, and the records go down in one write
// and one fsync. A failed write or fsync retries the whole batch; a batch
// that still fails fails every entry in it, and leaves no record behind.
// It returns one error per entry: an entry whose error is nil is durable
// when PutBatch returns, and later Gets on this handle serve it.
func (s *Store) PutBatch(entries []Entry) []error {
	s.reportDamage()
	errs := make([]error, len(entries))
	envs := make([][]byte, len(entries))
	n, size := 0, 0
	for i, e := range entries {
		env, err := json.Marshal(s.envelope(e))
		if err != nil {
			errs[i] = fmt.Errorf("store: encode %q: %w", e.Key, err)
			continue
		}
		envs[i] = env
		n++
		size += frameLen + len(env) + 1
	}
	if n == 0 {
		return errs
	}
	buf := make([]byte, 0, size)
	for i, env := range envs {
		if errs[i] == nil {
			buf = appendFrame(buf, env)
		}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.withRetry(func() error { return s.append(buf) }); err != nil {
		s.putFailures.Add(uint64(n))
		for i, e := range entries {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("store: put %q: %w", e.Key, err)
			}
		}
		return errs
	}
	off := s.size
	s.size += int64(len(buf))
	s.puts.Add(uint64(n))
	s.mu.Lock()
	for i, e := range entries {
		if errs[i] == nil {
			at := loc{log: s.logName, off: off, n: frameLen + len(envs[i]) + 1}
			s.index[e.Key] = at
			off += int64(at.n)
		}
	}
	s.mu.Unlock()
	return errs
}

// envelope wraps one entry's payload.
func (s *Store) envelope(e Entry) *envelope {
	sum := sha256.Sum256(e.Payload)
	return &envelope{
		Schema:         Schema,
		Version:        Version,
		Key:            e.Key,
		PayloadSchema:  s.payloadSchema,
		PayloadVersion: s.payloadVersion,
		SHA256:         hex.EncodeToString(sum[:]),
		Payload:        json.RawMessage(e.Payload),
	}
}

// append makes one attempt to write data after the log's committed records
// and fsync it, creating the log on the handle's first write. A failed
// attempt cuts the log back to its committed records, so a retry rewrites
// the batch in place and a batch that fails for good leaves nothing.
func (s *Store) append(data []byte) error {
	if s.log == nil {
		if err := s.create(); err != nil {
			return err
		}
	}
	path := s.log.Name()
	err := s.op("write", path, func() error {
		_, werr := s.log.WriteAt(data, s.size)
		return werr
	})
	if err == nil {
		err = s.op("sync", path, s.log.Sync)
	}
	if err != nil {
		// If the cut fails too, the failed batch's bytes stay past the
		// committed records until the next append overwrites them.
		s.log.Truncate(s.size)
	}
	return err
}

// create makes the handle's log, named for its creation time so a scan in
// name order meets later records last, and syncs the logs directory so
// the log's name survives a power cut along with its records.
func (s *Store) create() error {
	dir := filepath.Join(s.dir, logsDir)
	return s.op("create", dir, func() error {
		f, err := os.CreateTemp(dir, fmt.Sprintf("%016x-*%s", time.Now().UnixNano(), logExt))
		if err != nil {
			return err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		s.log, s.logName, s.size = f, filepath.Base(f.Name()), 0
		return nil
	})
}

// syncDir persists the directory dir's entries.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Quarantine sets aside the record the handle serves for key, if any. The
// store calls it internally on every corrupt read; callers that detect
// higher-level payload damage (e.g. a decoded result whose spec does not
// match) use it to invalidate the record the same way.
func (s *Store) Quarantine(key, reason string) {
	s.mu.Lock()
	at, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return
	}
	rec, _ := s.read(at)
	s.quarantine(key, at, rec, reason)
}

// quarantine sets the record at at aside: the handle stops serving key
// (when key is not empty and its record is still that one), and
// quarantine/<log>@<offset> receives a copy of rec with a .reason sidecar.
// That copy marks the record for every later Open to skip, and creating it
// is exclusive, so each record is counted and reported once, across
// handles and processes. If the copy cannot be made, the handle still
// stops serving the record, and the next Open finds it again.
func (s *Store) quarantine(key string, at loc, rec []byte, reason string) {
	s.quarantineMu.Lock()
	defer s.quarantineMu.Unlock()
	if key != "" {
		s.mu.Lock()
		if s.index[key] == at {
			delete(s.index, key)
		}
		s.mu.Unlock()
	}
	name := at.name()
	path := filepath.Join(s.dir, quarantineDir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return // set aside already, by this handle or another
	}
	if err == nil {
		// The copy's existence is the mark; a short copy or a lost
		// sidecar costs only post-mortem detail, so their errors drop.
		f.Write(rec)
		f.Close()
		os.WriteFile(path+".reason", []byte(reason+"\n"), 0o644)
	}
	s.quarantines.Add(1)
	if h := s.OnQuarantine; h != nil {
		h(name, reason)
	}
}
