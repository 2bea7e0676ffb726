// Result persistence: the Runner's bridge to the on-disk store.
//
// The in-memory singleflight cache dies with the process; with a Store
// attached, every completed simulation — and every memoized deterministic
// typed fault — is also written through to disk, and a cache miss
// consults the store before simulating. A sweep's workers hand their
// completions to the sweep's committer, which group-commits them while
// the workers simulate on; a spec run outside a sweep persists in place.
// That makes sweeps resumable: kill the process at any point (clean drain
// or SIGKILL), rerun the same command with the same -store directory, and
// only the missing or invalidated cells simulate again, converging to
// output byte-identical to an uninterrupted run.
//
// The store key is the RunSpec's deterministic key plus the resolved input
// size n — the one Runner-level knob (Scale) that changes a run's
// architectural work — so two sweeps at different -scale values sharing a
// store directory can never alias. Watchdog-expiry faults are never
// persisted: cycle budgets and wall-clock deadlines are Runner settings,
// not properties of the spec, so a budget-bound failure in one sweep must
// not poison an unbounded rerun. Wall-clock-dependent outcomes stay out of
// the store entirely for the same reason. A deadlock (no retirement for
// the pipeline's stall limit) is a property of the spec, so it persists
// like any other typed fault and a resume does not re-pay the stall.
package harness

import (
	"encoding/json"
	"fmt"

	"cfd/internal/fault"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// Store payload schema identification: the version of the storedRun
// payload carried inside store envelopes. Bump the version whenever the
// payload layout — or the meaning of a simulation's results — changes
// incompatibly; stale entries then quarantine and re-simulate instead of
// decoding into wrong tables. Version 2: each program is compiled for its
// spec's queue capacities, so a version-1 entry for a non-default BQ, VQ
// or TQ holds the run of a program compiled for the default queues.
const (
	StorePayloadSchema  = "cfd-run"
	StorePayloadVersion = 2
)

// OpenStore opens (or creates) a result store rooted at dir, bound to the
// harness's payload schema. Attach the result to Runner.Store.
func OpenStore(dir string, opts ...store.Option) (*store.Store, error) {
	return store.Open(dir, StorePayloadSchema, StorePayloadVersion, opts...)
}

// storedRun is the store payload for one run: the spec it answers, and
// exactly one of a successful result or a deterministic typed fault.
type storedRun struct {
	Spec   RunSpec      `json:"spec"`
	Result *Result      `json:"result,omitempty"`
	Fault  *storedFault `json:"fault,omitempty"`
}

// storedFault is the persistable image of a memoized failure: the typed
// fault's kind, resolved message, and machine-state snapshot, plus the
// full wrapped error text so a rehydrated failure reports exactly like
// the original. Panic stacks are deliberately dropped — they are excluded
// from Error() precisely because they are nondeterministic.
type storedFault struct {
	Kind    uint8          `json:"kind"`
	Msg     string         `json:"msg"`
	Message string         `json:"message"`
	Snap    fault.Snapshot `json:"snapshot"`
}

// storedFaultError rehydrates a persisted failure: Error() reproduces the
// original wrapped message byte for byte, and Unwrap exposes the typed
// *fault.Fault so errors.As / fault.As and the export's fault records see
// the same classification and snapshot as a fresh simulation.
type storedFaultError struct {
	msg string
	f   *fault.Fault
}

func (e *storedFaultError) Error() string { return e.msg }
func (e *storedFaultError) Unwrap() error { return e.f }

// workloadN resolves the effective input size the Runner would simulate s
// at — DefaultN scaled, floored at the minimum run length.
func (r *Runner) workloadN(s *workload.Spec) int64 {
	n := int64(float64(s.DefaultN) * r.Scale)
	if n < 256 {
		n = 256
	}
	return n
}

// storeKey derives the on-disk key for rs: the spec key extended with the
// resolved input size. ok is false when the workload is unknown — the
// spec then skips the store and lets simulate report the error.
func (r *Runner) storeKey(rs RunSpec, key string) (string, bool) {
	s, ok := workload.ByName(rs.Workload)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s|n=%d", key, r.workloadN(s)), true
}

// storeLoad consults the store for rs. ok reports whether the entry fully
// rehydrated (as a result or a memoized fault); any store miss, corrupt
// entry, decode failure, or spec mismatch degrades to ok=false and the
// caller simulates. Higher-level damage the store's envelope checks cannot
// see — a payload whose decoded spec is not rs — quarantines the entry the
// same way the store quarantines torn bytes.
func (r *Runner) storeLoad(rs RunSpec, key string) (*Result, error, bool) {
	skey, ok := r.storeKey(rs, key)
	if !ok {
		return nil, nil, false
	}
	payload, hit, err := r.Store.Get(skey)
	if err != nil || !hit {
		return nil, nil, false
	}
	var sr storedRun
	if err := json.Unmarshal(payload, &sr); err != nil {
		r.Store.Quarantine(skey, "payload decode: "+err.Error())
		return nil, nil, false
	}
	if sr.Spec != rs {
		r.Store.Quarantine(skey, fmt.Sprintf("payload spec mismatch: entry holds %s, want %s", sr.Spec.key(), rs.key()))
		return nil, nil, false
	}
	switch {
	case sr.Result != nil:
		if sr.Result.Spec != rs {
			r.Store.Quarantine(skey, fmt.Sprintf("payload result spec mismatch: result holds %s, want %s", sr.Result.Spec.key(), rs.key()))
			return nil, nil, false
		}
		return sr.Result, nil, true
	case sr.Fault != nil:
		f := &fault.Fault{Kind: fault.Kind(sr.Fault.Kind), Msg: sr.Fault.Msg, Snap: sr.Fault.Snap}
		if sr.Fault.Message == f.Error() {
			return nil, f, true
		}
		return nil, &storedFaultError{msg: sr.Fault.Message, f: f}, true
	default:
		r.Store.Quarantine(skey, "payload carries neither result nor fault")
		return nil, nil, false
	}
}

// storeEntry builds the store entry for a completed run; ok is false when
// the run must not persist. Successful results always persist; failures
// persist only when they are deterministic typed faults (watchdog expiries
// are budget-dependent and untyped errors carry environment-dependent
// causes — both re-simulate on resume instead).
func (r *Runner) storeEntry(f finished) (store.Entry, bool) {
	skey, ok := r.storeKey(f.rs, f.rs.key())
	if !ok {
		return store.Entry{}, false
	}
	sr := storedRun{Spec: f.rs}
	switch {
	case f.err == nil:
		sr.Result = f.res
	default:
		ft, typed := fault.As(f.err)
		if !typed || ft.Kind == fault.WatchdogExpiry {
			return store.Entry{}, false
		}
		msg := ft.Msg
		if msg == "" && ft.Err != nil {
			msg = ft.Err.Error()
		}
		sr.Fault = &storedFault{
			Kind:    uint8(ft.Kind),
			Msg:     msg,
			Message: f.err.Error(),
			Snap:    ft.Snap,
		}
	}
	payload, err := json.Marshal(&sr)
	if err != nil {
		return store.Entry{}, false
	}
	return store.Entry{Key: skey, Payload: payload}, true
}

// storeBatch writes a batch of completed runs through to the store as one
// PutBatch and reports which of them landed on disk. Persistence is
// best-effort: a put that still fails after the store's bounded retries
// is counted in the store metrics and the sweep carries on with the
// in-memory result. A spec run outside a sweep persists through it in
// place, as a batch of one; a sweep's runs persist through its committer.
func (r *Runner) storeBatch(batch []finished) []bool {
	stored := make([]bool, len(batch))
	entries := make([]store.Entry, 0, len(batch))
	idx := make([]int, 0, len(batch))
	for i, f := range batch {
		if e, ok := r.storeEntry(f); ok {
			entries = append(entries, e)
			idx = append(idx, i)
		}
	}
	if len(entries) == 0 {
		return stored
	}
	for j, err := range r.Store.PutBatch(entries) {
		stored[idx[j]] = err == nil
	}
	return stored
}

// finished is one fresh simulation on its way to the store.
type finished struct {
	rs  RunSpec
	res *Result
	err error
}

// commitQueue bounds a sweep's committer queue: a worker blocks only when
// this many finished specs wait to be written. The bound caps the results
// held in memory awaiting the disk, and the completions a SIGKILL can lose
// on top of those in flight (a resume simulates them again). Workers do
// wait when the disk falls that far behind. On the cold grid command
// (perfbench/grid.json at -scale 0.003 -verify -store, 2 vCPUs), at most
// 32–50 finished specs waited on the committer at once over six sweeps.
const commitQueue = 64

// committer is a sweep's write-behind store writer: one goroutine that
// takes fresh simulations off the workers, writes whatever is queued as
// one store batch (one append and one fsync for the lot), and only then
// emits each spec's spec_done. So a spec_done with stored:true still names
// an entry whose append and fsync have both returned.
type committer struct {
	r     *Runner
	sw    *sweepScope
	queue chan finished
	done  chan struct{}
}

// startCommitter starts the committer of the sweep sw; the sweep stops it
// once its workers have returned.
func (r *Runner) startCommitter(sw *sweepScope) *committer {
	c := &committer{r: r, sw: sw, queue: make(chan finished, commitQueue), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *committer) run() {
	defer close(c.done)
	var batch []finished
	for f := range c.queue {
		// Only the committer receives, so what len reports is there to
		// take without blocking, after a close too.
		batch = append(batch[:0], f)
		for len(c.queue) > 0 {
			batch = append(batch, <-c.queue)
		}
		stored := c.r.storeBatch(batch)
		for i, f := range batch {
			c.sw.done(f.rs, f.res, f.err, runInfo{stored: stored[i]})
		}
	}
}

// stop closes the queue, which every worker has stopped sending to, and
// returns once the committer has written and journaled all of it.
func (c *committer) stop() {
	close(c.queue)
	<-c.done
}
