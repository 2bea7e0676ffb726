package faultinject

// This file is the store-corruption campaign: the persistent result
// store's analog of the architectural campaign. Instead of corrupting live
// queue state, each trial corrupts one record of the store's log in place —
// the way real storage fails: torn writes, bit rot, truncation, stale
// schemas, stripped checksums — then replays a full sweep over the damaged
// store and asserts the store's integrity machinery catches it: the record
// is quarantined (never served), the cell transparently re-simulates, and
// every result matches the golden sweep byte for byte. A trial where
// corrupt data is served, or where the converged results drift, is
// reported as missed; the campaign contract, like the architectural one,
// is zero misses.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"

	"cfd/internal/config"
	"cfd/internal/harness"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// Store-corruption injection sites. Each damages one record and keeps its
// newline, so the damage stays inside the record. The last three rewrite
// the envelope and re-frame it, as a writer of a stale envelope would, so
// only the envelope checks can catch them.
const (
	SiteStoreTorn       Site = "store-torn"           // keep only a prefix of the record (interrupted write)
	SiteStoreTruncate   Site = "store-truncate"       // truncate the record to zero bytes
	SiteStoreBitFlip    Site = "store-bitflip"        // flip one random bit anywhere in the record
	SiteStoreStaleEnv   Site = "store-stale-envelope" // rewrite the envelope schema version
	SiteStoreStalePay   Site = "store-stale-payload"  // rewrite the payload schema version
	SiteStoreNoChecksum Site = "store-checksum-strip" // delete the sha256 field entirely
)

// AllStoreSites lists every store site in campaign round-robin order.
var AllStoreSites = []Site{
	SiteStoreTorn, SiteStoreTruncate, SiteStoreBitFlip,
	SiteStoreStaleEnv, SiteStoreStalePay, SiteStoreNoChecksum,
}

// DetectQuarantine is the store campaign's detector: the corrupt entry was
// quarantined, the cell re-simulated, and the sweep converged to the golden
// results.
const DetectQuarantine = "store-quarantine"

// StoreConfig parameterizes a store-corruption campaign.
type StoreConfig struct {
	// Seed drives every random choice; identical seeds reproduce the
	// campaign trial for trial.
	Seed int64
	// Injections is the number of corruptions to apply. Defaults to 30.
	Injections int
	// Dir is the campaign's working directory ("" = a private temp dir,
	// removed afterwards). The golden store lives in Dir/store, and each
	// trial's damaged copy of it in Dir/trial.
	Dir string
	// Scale is the victim Runner's workload scale (0 = 0.02, tiny).
	Scale float64
}

// storeVictimSpecs is the sweep the campaign protects: a small matrix
// covering every result shape the store round-trips (plain counters,
// per-branch maps, the MSHR histogram, sampled telemetry sections).
func storeVictimSpecs() []harness.RunSpec {
	cfg := config.SandyBridge()
	return []harness.RunSpec{
		{Workload: "soplexlike", Variant: workload.Base, Config: cfg},
		{Workload: "soplexlike", Variant: "cfd", Config: cfg},
		{Workload: "astar1like", Variant: "cfd", Config: cfg, SampleMSHR: true},
		{Workload: "mcflike", Variant: "cfd", Config: cfg, SampleEvery: 500},
	}
}

func openStoreRunner(storeDir string, scale float64) (*harness.Runner, error) {
	st, err := harness.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	r := harness.NewRunner(scale)
	r.Jobs = 1
	r.Store = st
	return r, nil
}

// RunStore executes a store-corruption campaign and returns its report
// (same document family as the architectural campaign). Errors are
// infrastructure failures — the golden sweep itself failing, or the
// campaign directory being unusable; detection outcomes, including misses,
// are reported in the Report.
func RunStore(cfg StoreConfig) (*Report, error) {
	n := cfg.Injections
	if n <= 0 {
		n = 30
	}
	scale := cfg.Scale
	if scale <= 0 {
		scale = 0.02
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cfd-store-inject-*")
		if err != nil {
			return nil, fmt.Errorf("faultinject: store campaign dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	storeDir := filepath.Join(dir, "store")

	// Golden population: one clean sweep fills the store and fixes the
	// expected results every trial must converge back to.
	specs := storeVictimSpecs()
	pop, err := openStoreRunner(storeDir, scale)
	if err != nil {
		return nil, err
	}
	golden, err := pop.Sweep(context.Background(), specs)
	if err := errors.Join(err, pop.Store.Close()); err != nil {
		return nil, fmt.Errorf("faultinject: golden store sweep: %w", err)
	}
	logs, err := filepath.Glob(filepath.Join(storeDir, "logs", "*.log"))
	if err != nil || len(logs) != 1 {
		return nil, fmt.Errorf("faultinject: golden store has logs %v, want one (%v)", logs, err)
	}
	log, err := os.ReadFile(logs[0])
	if err != nil {
		return nil, err
	}
	recs, err := storeRecords(log)
	if err != nil || len(recs) != len(specs) {
		return nil, fmt.Errorf("faultinject: golden log has %d records for %d specs (%v)", len(recs), len(specs), err)
	}

	rep := &Report{
		Schema:    ReportSchema,
		Version:   ReportVersion,
		Seed:      cfg.Seed,
		Requested: n,
		BySite:    make(map[Site]*SiteStats),
	}
	for attempt := 0; rep.Injected < n; attempt++ {
		site := AllStoreSites[attempt%len(AllStoreSites)]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*0x9E3779B9))
		tr, err := runStoreTrial(site, rng, filepath.Join(dir, "trial"), recs, specs, golden, scale)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s trial %d: %w", site, attempt, err)
		}
		rep.Trials = append(rep.Trials, tr)
		st := rep.BySite[site]
		if st == nil {
			st = &SiteStats{}
			rep.BySite[site] = st
		}
		rep.Injected++
		st.Injected++
		if tr.Outcome == OutcomeDetected {
			rep.Detected++
			st.Detected++
		} else {
			rep.Missed++
			st.Missed++
		}
	}
	return rep, nil
}

// storeRecord is one record of the golden log, newline included, and the
// workload/variant of the spec it stores.
type storeRecord struct {
	victim string
	data   []byte
}

// storeRecords splits a log into its records, ordered by victim.
func storeRecords(log []byte) ([]storeRecord, error) {
	var recs []storeRecord
	for _, rec := range bytes.SplitAfter(log, []byte("\n")) {
		if len(rec) == 0 {
			break // what follows the final newline
		}
		env, err := store.Unframe(rec)
		if err != nil {
			return nil, err
		}
		var e struct {
			Payload struct{ Spec harness.RunSpec }
		}
		if err := json.Unmarshal(env, &e); err != nil {
			return nil, err
		}
		recs = append(recs, storeRecord{e.Payload.Spec.Workload + "/" + string(e.Payload.Spec.Variant), rec})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].victim < recs[j].victim })
	return recs, nil
}

// runStoreTrial writes a store holding the golden records, one of them
// damaged, to trialDir, replays the full sweep over it with a fresh Runner
// (cold memo cache, new store handle — the resumed-process model),
// classifies the outcome, and removes the store, so trials are
// independent.
func runStoreTrial(site Site, rng *rand.Rand, trialDir string, recs []storeRecord,
	specs []harness.RunSpec, golden []*harness.Result, scale float64) (Trial, error) {
	victim := rng.Intn(len(recs))
	corrupted, detail, offset, err := corruptStoreRecord(site, recs[victim].data, rng)
	if err != nil {
		return Trial{}, err
	}
	var log []byte
	for i, rec := range recs {
		if i == victim {
			rec.data = corrupted
		}
		log = append(log, rec.data...)
	}
	defer os.RemoveAll(trialDir)
	if err := os.MkdirAll(filepath.Join(trialDir, "logs"), 0o755); err != nil {
		return Trial{}, err
	}
	if err := os.WriteFile(filepath.Join(trialDir, "logs", "golden.log"), log, 0o644); err != nil {
		return Trial{}, err
	}

	r, err := openStoreRunner(trialDir, scale)
	if err != nil {
		return Trial{}, err
	}
	defer r.Store.Close()
	res, err := r.Sweep(context.Background(), specs)
	if err != nil {
		// The sweep must never fail because of store damage — that would
		// be an availability loss, a miss of its own kind.
		return Trial{Site: site, Victim: recs[victim].victim, Step: offset,
			Detail:  fmt.Sprintf("%s; sweep failed: %v", detail, err),
			Outcome: OutcomeMissed}, nil
	}
	converged := len(res) == len(golden)
	for i := range golden {
		if !converged || !reflect.DeepEqual(res[i], golden[i]) {
			converged = false
			break
		}
	}
	m := r.Store.Metrics()
	tr := Trial{Site: site, Victim: recs[victim].victim, Step: offset, Detail: detail}
	switch {
	case m.Quarantines >= 1 && converged:
		tr.Outcome = OutcomeDetected
		tr.Detector = DetectQuarantine
	case !converged:
		tr.Outcome = OutcomeMissed
		tr.Detail += " (results diverged from golden)"
	default:
		tr.Outcome = OutcomeMissed
		tr.Detail += " (corrupt entry served without quarantine)"
	}
	return tr, nil
}

// corruptStoreRecord applies one site's damage to a record's bytes, newline
// included, and returns the damaged record, a human-readable description,
// and the byte offset of the corruption (0 when the damage is structural).
func corruptStoreRecord(site Site, orig []byte, rng *rand.Rand) (data []byte, detail string, offset int, err error) {
	body := orig[:len(orig)-1]
	switch site {
	case SiteStoreTorn:
		cut := 1 + rng.Intn(len(body)-1)
		return append(slices.Clip(body[:cut]), '\n'), fmt.Sprintf("torn write: first %d of %d bytes", cut, len(body)), cut, nil
	case SiteStoreTruncate:
		return []byte("\n"), "truncated to zero bytes", 0, nil
	case SiteStoreBitFlip:
		i, bit := rng.Intn(len(body)), rng.Intn(8)
		data = bytes.Clone(orig)
		data[i] ^= 1 << bit
		return data, fmt.Sprintf("flipped bit %d of byte %d", bit, i), i, nil
	case SiteStoreStaleEnv, SiteStoreStalePay, SiteStoreNoChecksum:
		// Structural damage keeps the JSON well-formed: decode the
		// envelope, rewrite one field, re-encode and re-frame.
		env, err := store.Unframe(orig)
		if err != nil {
			return nil, "", 0, err
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(env, &fields); err != nil {
			return nil, "", 0, fmt.Errorf("envelope is not JSON: %w", err)
		}
		switch site {
		case SiteStoreStaleEnv:
			fields["version"] = json.RawMessage("99")
			detail = "envelope schema version rewritten to 99"
		case SiteStoreStalePay:
			fields["payloadVersion"] = json.RawMessage("0")
			detail = "payload schema version rewritten to 0"
		case SiteStoreNoChecksum:
			delete(fields, "sha256")
			detail = "sha256 checksum field stripped"
		}
		env, err = json.Marshal(fields)
		if err != nil {
			return nil, "", 0, err
		}
		return store.Frame(env), detail, 0, nil
	}
	return nil, "", 0, fmt.Errorf("unknown store site %q", site)
}
