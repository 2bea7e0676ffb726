// Package export serializes benchmark results to a stable, schema-versioned
// JSON document. The encoding is deterministic by construction — runs are
// sorted by spec key, CPI buckets serialize in bucket order, maps rely on
// encoding/json's sorted keys, and nothing time- or concurrency-dependent
// (wall time, job counts) is included — so a document is byte-identical for
// any -jobs setting and diffable across runs.
//
// Schema compatibility: Version bumps only on incompatible changes (field
// removal or meaning change). Adding fields is compatible and does not bump
// the version; consumers must ignore unknown fields.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/stats"
	"cfd/internal/store"
)

// Schema identifies the document family; Version its revision.
//
// Version history:
//
//	1 — initial schema: runs, experiments, faults.
//	2 — telemetry: runs gain optional `timeseries` (interval-sampled
//	    IPC/MPKI/stall/occupancy series) and `occupancy` (full-run
//	    BQ/VQ/TQ histograms) sections, present when the producing spec
//	    enabled sampling. Version-1 documents decode unchanged.
//	2 (additive, no bump) — persistent-store diagnostics: documents from
//	    a `-store` run gain a top-level `store` section (hit/miss/
//	    quarantine/retry counters and the end-of-run entry count). With a
//	    store attached, an experiment's `simulations` metric counts cache
//	    misses materialized — simulated or restored — so the experiments
//	    section stays byte-identical across interrupted-and-resumed
//	    sweeps; the fresh-vs-restored split lives in `store` only.
//	2 (additive, no bump) — event-journal pointer: documents from a
//	    `-journal` run gain a top-level `journal` section naming the
//	    journal file, its schema/version, and the event count. Like
//	    `store`, it is process-history-dependent (an interrupted run
//	    journals fewer events than a clean one) and stripped by
//	    byte-identity comparisons.
//	2 (additive, no bump) — manifest provenance: documents from a
//	    `-manifest` run gain a top-level `manifest` section naming the
//	    manifest file, its declared name and schema/version, its content
//	    digest, and the expanded spec count. Unlike `store` and
//	    `journal` it is fully deterministic (a pure function of the
//	    manifest file), so byte-identity comparisons keep it.
const (
	Schema  = "cfd-results"
	Version = 2
)

// Document is the top-level export: one tool invocation's results.
type Document struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Tool    string  `json:"tool"`  // "cfdbench" or "cfdsim"
	Scale   float64 `json:"scale"` // workload size scale factor
	Verify  bool    `json:"verify"`

	// Experiments lists the harness experiments that produced the runs,
	// with per-experiment Runner cache metrics (wall time is deliberately
	// excluded: it is not deterministic; the CLIs report it on stderr).
	Experiments []Experiment `json:"experiments,omitempty"`

	// Runs holds every memoized simulation, sorted by spec key.
	Runs []Run `json:"runs"`

	// Faults holds every failed run as a structured fault record, sorted
	// by spec key — present when the Runner swept in keep-going mode (or
	// the tool chose to export after a failure). Adding this section is a
	// compatible schema change; consumers ignoring unknown fields see the
	// same document as before.
	Faults []FaultRecord `json:"faults,omitempty"`

	// Store is the persistent result store's diagnostic section, present
	// when the Runner ran with a -store directory attached. Unlike every
	// other section it is deliberately process-history-dependent: the
	// hit/miss split says how much of this invocation was restored versus
	// simulated, which is exactly what differs between an uninterrupted
	// sweep and a killed-and-resumed one. Consumers comparing documents
	// for byte-identity across such runs strip this one section (the CI
	// resume gate does `jq 'del(.store)'`); everything else converges.
	Store *StoreSection `json:"store,omitempty"`

	// Journal points at the structured event journal recorded alongside
	// this invocation, present when the tool ran with -journal. Process-
	// history-dependent like Store: byte-identity comparisons strip it.
	Journal *JournalSection `json:"journal,omitempty"`

	// Manifest records the provenance of a -manifest run: which declared
	// sweep produced the document's runs. Deterministic, unlike Store and
	// Journal — two runs of the same manifest carry identical sections.
	Manifest *ManifestSection `json:"manifest,omitempty"`
}

// ManifestSection identifies the experiment manifest a -manifest run
// expanded, pinning the document to the exact declaration (by content
// digest) that enumerated its specs.
type ManifestSection struct {
	Path    string `json:"path"`
	Name    string `json:"name,omitempty"`
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Digest  string `json:"digest"`
	Specs   int    `json:"specs"`
}

// JournalSection identifies the event journal a -journal run produced.
type JournalSection struct {
	Path    string `json:"path"`
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Events  uint64 `json:"events"`
}

// StoreSection reports the persistent store's counters for this
// invocation plus the store's end-of-run entry count (which, unlike the
// hit/miss split, is deterministic for a converged sweep).
type StoreSection struct {
	Dir     string        `json:"dir"`
	Entries int           `json:"entries"`
	Metrics store.Metrics `json:"metrics"`
}

// FaultRecord is one failed run: the identifying spec fields, the typed
// fault classification, and the machine-state snapshot captured at fault
// time. Error strings and snapshots are deterministic (panic stacks are
// deliberately excluded from fault messages), so documents with faults stay
// byte-identical across -jobs settings.
type FaultRecord struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Config   string `json:"config"`

	Kind     string          `json:"kind,omitempty"` // fault.Kind; empty for untyped errors
	Error    string          `json:"error"`
	Snapshot *fault.Snapshot `json:"snapshot,omitempty"`
}

// FromFailure converts one harness failure to its export record.
func FromFailure(fl harness.Failure) FaultRecord {
	rec := FaultRecord{
		Workload: fl.Spec.Workload,
		Variant:  string(fl.Spec.Variant),
		Config:   fl.Spec.Config.Name,
		Error:    fl.Err.Error(),
	}
	if f, ok := fault.As(fl.Err); ok {
		rec.Kind = f.Kind.String()
		snap := f.Snap
		rec.Snapshot = &snap
	}
	return rec
}

// Experiment records one harness experiment execution.
type Experiment struct {
	ID      string          `json:"id"`
	Title   string          `json:"title"`
	Metrics harness.Metrics `json:"metrics"` // deltas for this experiment
}

// Run is one simulation: the identifying spec, the architected/microarch
// counters, the CPI stack, and the energy accounting.
type Run struct {
	Workload   string      `json:"workload"`
	Variant    string      `json:"variant"`
	Config     config.Core `json:"config"`
	PerfectAll bool        `json:"perfectAll,omitempty"`
	PerfectCFD bool        `json:"perfectCFD,omitempty"`

	Counters Counters       `json:"counters"`
	CPIStack stats.CPIStack `json:"cpiStack"`
	Energy   Energy         `json:"energy"`
	MSHRHist []uint64       `json:"mshrHist,omitempty"`

	// Timeseries and Occupancy are present when the run's spec enabled
	// interval sampling (SampleEvery > 0): the per-interval telemetry
	// series and the full-run architectural queue-occupancy histograms.
	// Both derive from simulated time only, so they are byte-identical
	// across -jobs settings like the rest of the document.
	Timeseries *obs.TimeseriesSection `json:"timeseries,omitempty"`
	Occupancy  *obs.OccupancySection  `json:"occupancy,omitempty"`
}

// Counters is the exported subset of pipeline.Stats: every scalar counter,
// with derived rates precomputed for convenience. Per-static-branch detail
// stays internal (it is unbounded and workload-addressed).
type Counters struct {
	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	Fetched uint64  `json:"fetched"`
	IPC     float64 `json:"ipc"`

	CondBranches   uint64    `json:"condBranches"`
	Mispredicts    uint64    `json:"mispredicts"`
	MPKI           float64   `json:"mpki"`
	MispredByLevel [5]uint64 `json:"mispredByLevel"` // NoData, L1, L2, L3, MEM
	BTBMisfetches  uint64    `json:"btbMisfetches"`

	BQPops            uint64 `json:"bqPops"`
	BQResolvedAtFetch uint64 `json:"bqResolvedAtFetch"`
	BQMisses          uint64 `json:"bqMisses"`
	BQLateMispredict  uint64 `json:"bqLateMispredict"`
	BQFullStalls      uint64 `json:"bqFullStalls"`
	BQMissStalls      uint64 `json:"bqMissStalls"`
	TQPops            uint64 `json:"tqPops"`
	TQMissStalls      uint64 `json:"tqMissStalls"`
	TCRBranches       uint64 `json:"tcrBranches"`

	SquashedUops     uint64 `json:"squashedUops"`
	Recoveries       uint64 `json:"recoveries"`
	RetireRecoveries uint64 `json:"retireRecoveries"`
}

// Energy is the exported energy accounting: totals plus per-event access
// counts (the McPAT-style inputs, so consumers can re-derive totals under
// their own per-access model).
type Energy struct {
	Total   float64           `json:"total"`
	Dynamic float64           `json:"dynamic"`
	Leakage float64           `json:"leakage"`
	Queue   float64           `json:"queue"` // BQ + VQ renamer + TQ dynamic
	Events  map[string]uint64 `json:"events,omitempty"`
}

// FromResult converts one harness result to its export form. The MSHR
// histogram is exported only when the spec sampled it — otherwise the
// hierarchy's slot-indexed slice is an all-zero placeholder.
func FromResult(res *harness.Result) Run {
	st := &res.Stats
	var hist []uint64
	if res.Spec.SampleMSHR {
		hist = res.MSHRHist
	}
	return Run{
		Workload:   res.Spec.Workload,
		Variant:    string(res.Spec.Variant),
		Config:     res.Spec.Config,
		PerfectAll: res.Spec.PerfectAll,
		PerfectCFD: res.Spec.PerfectCFD,
		Counters: Counters{
			Cycles:  st.Cycles,
			Retired: st.Retired,
			Fetched: st.Fetched,
			IPC:     st.IPC(),

			CondBranches:   st.CondBranches,
			Mispredicts:    st.Mispredicts,
			MPKI:           st.MPKI(),
			MispredByLevel: st.MispredByLevel,
			BTBMisfetches:  st.BTBMisfetches,

			BQPops:            st.BQPops,
			BQResolvedAtFetch: st.BQResolvedAtFetch,
			BQMisses:          st.BQMisses,
			BQLateMispredict:  st.BQLateMispredict,
			BQFullStalls:      st.BQFullStalls,
			BQMissStalls:      st.BQMissStalls,
			TQPops:            st.TQPops,
			TQMissStalls:      st.TQMissStalls,
			TCRBranches:       st.TCRBranches,

			SquashedUops:     st.SquashedUops,
			Recoveries:       st.Recoveries,
			RetireRecoveries: st.RetireRecoveries,
		},
		CPIStack: st.CPI,
		Energy: Energy{
			Total:   res.EnergyTotal,
			Dynamic: res.EnergyDynamic,
			Leakage: res.EnergyLeakage,
			Queue:   res.EnergyQueue,
			Events:  res.EnergyEvents,
		},
		MSHRHist:   hist,
		Timeseries: res.Timeseries,
		Occupancy:  res.Occupancy,
	}
}

// Build assembles a Document from the runner's memoized results (already
// sorted by spec key) and the per-experiment records.
func Build(tool string, r *harness.Runner, exps []Experiment) *Document {
	doc := &Document{
		Schema:      Schema,
		Version:     Version,
		Tool:        tool,
		Scale:       r.Scale,
		Verify:      r.Verify,
		Experiments: exps,
	}
	for _, res := range r.Results() {
		doc.Runs = append(doc.Runs, FromResult(res))
	}
	for _, fl := range r.Failures() {
		doc.Faults = append(doc.Faults, FromFailure(fl))
	}
	if r.Store != nil {
		sec := &StoreSection{Dir: r.Store.Dir(), Metrics: r.Store.Metrics()}
		if n, err := r.Store.Len(); err == nil {
			sec.Entries = n
		}
		doc.Store = sec
	}
	if r.Journal != nil && r.Journal.Path() != "" {
		doc.Journal = &JournalSection{
			Path:    r.Journal.Path(),
			Schema:  journal.Schema,
			Version: journal.Version,
			Events:  r.Journal.Events(),
		}
	}
	return doc
}

// Encode writes the document as indented JSON with a trailing newline.
func Encode(w io.Writer, doc *Document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the document to the file at path.
func WriteFile(path string, doc *Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, doc); err != nil {
		f.Close()
		return fmt.Errorf("export: writing %s: %w", path, err)
	}
	return f.Close()
}

// Decode reads a document back, rejecting schema mismatches so consumers
// fail loudly on drift.
func Decode(r io.Reader) (*Document, error) {
	var doc Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("export: schema %q, want %q", doc.Schema, Schema)
	}
	if doc.Version > Version {
		return nil, fmt.Errorf("export: document version %d is newer than supported %d", doc.Version, Version)
	}
	return &doc, nil
}
