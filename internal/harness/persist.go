// Result persistence: the Runner's bridge to the on-disk store.
//
// The in-memory singleflight cache dies with the process; with a Store
// attached, every completed simulation — and every memoized deterministic
// typed fault — is also written through to disk as it lands, and a cache
// miss consults the store before simulating. That makes sweeps resumable:
// kill the process at any point (clean drain or SIGKILL), rerun the same
// command with the same -store directory, and only the missing or
// invalidated cells simulate again, converging to output byte-identical
// to an uninterrupted run.
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

// storePersist writes a completed run through to the store and reports
// whether the entry actually landed on disk. Successful results always
// persist; failures persist only when they are deterministic typed
// faults (watchdog expiries are budget-dependent and untyped errors
// carry environment-dependent causes — both re-simulate on resume
// instead). Persistence is best-effort: a Put that still fails after
// the store's bounded retries is counted in the store metrics and the
// sweep carries on with the in-memory result. The return value feeds
// the journal's stored flag, which is why storePersist runs before the
// spec_done event is emitted: a journal line claiming stored=true is
// guaranteed to have its store entry durably renamed into place.
func (r *Runner) storePersist(rs RunSpec, key string, res *Result, runErr error) bool {
	skey, ok := r.storeKey(rs, key)
	if !ok {
		return false
	}
	sr := storedRun{Spec: rs}
	switch {
	case runErr == nil:
		sr.Result = res
	default:
		f, typed := fault.As(runErr)
		if !typed || f.Kind == fault.WatchdogExpiry {
			return false
		}
		msg := f.Msg
		if msg == "" && f.Err != nil {
			msg = f.Err.Error()
		}
		sr.Fault = &storedFault{
			Kind:    uint8(f.Kind),
			Msg:     msg,
			Message: runErr.Error(),
			Snap:    f.Snap,
		}
	}
	payload, err := json.Marshal(&sr)
	if err != nil {
		return false
	}
	return r.Store.Put(skey, payload) == nil
}
