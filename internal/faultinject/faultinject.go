// Package faultinject runs deterministic, seeded fault-injection campaigns
// against the architectural state of the CFD extension: it corrupts live
// BQ/VQ/TQ entries, mark state, the trip-count register, and save/restore
// memory images mid-run, then asserts that the runtime's detection
// machinery — typed faults, watchdogs, and golden-model differential
// checking — catches every injection.
//
// Each trial runs a victim program twice on the functional emulator. The
// first (golden) run records the retired-instruction stream, per-step queue
// occupancy counters, and the fate of every queue entry (consumed,
// bulk-discarded by Forward, or resident at halt). The trial then picks an
// injection point from the entries whose corruption is guaranteed to have
// an architectural consequence — e.g. a predicate flip is only injected
// into an entry a BranchBQ will consume, never one a ForwardBQ discards —
// and re-runs the program with the corruption applied at that step. The
// victim is checked four ways, in order:
//
//  1. typed fault: the corruption trips an ISA ordering rule (pop on
//     empty, overflow-bit misuse) or a malformed restore image;
//  2. watchdog: the corruption stops forward progress (e.g. a huge trip
//     count) and the instruction-budget watchdog expires, or the engine
//     reports a deadlock;
//  3. lockstep divergence: the retired stream deviates from the golden
//     run — PC, opcode, branch outcome, effective address, or retired
//     result value (the DIVA-style checker the differential verifier
//     models);
//  4. end-state divergence: final registers, PC, TCR, or queue contents
//     differ from the golden run.
//
// A trial caught by none of these is reported as missed; the campaign's
// contract (enforced in CI) is zero missed injections.
package faultinject

import (
	"fmt"
	"math/rand"
)

// Site names one class of injected corruption.
type Site string

// Injection sites.
const (
	SiteBQPred     Site = "bq-pred"     // flip a live BQ predicate
	SiteBQMark     Site = "bq-mark"     // clear the BQ mark before its Forward
	SiteVQValue    Site = "vq-value"    // flip one bit of a live VQ value
	SiteTQCount    Site = "tq-count"    // flip one trip-count bit of a live TQ entry
	SiteTQOverflow Site = "tq-overflow" // flip a live TQ entry's overflow bit
	SiteTCR        Site = "tcr"         // flip one bit of the trip-count register
	SiteImgBQ      Site = "img-bq"      // flip a live bit of a saved BQ memory image
	SiteImgVQ      Site = "img-vq"      // flip a live bit of a saved VQ memory image
	SiteImgTQ      Site = "img-tq"      // flip a live bit of a saved TQ memory image
)

// AllSites lists every implemented site in campaign round-robin order.
var AllSites = []Site{
	SiteBQPred, SiteBQMark, SiteVQValue, SiteTQCount,
	SiteTQOverflow, SiteTCR, SiteImgBQ, SiteImgVQ, SiteImgTQ,
}

// Report schema identification (the campaign's own document family,
// distinct from the cfd-results schema).
const (
	ReportSchema  = "cfd-faultinject"
	ReportVersion = 1
)

// Outcome classifies one trial.
const (
	OutcomeDetected = "detected"
	OutcomeMissed   = "missed"
	OutcomeSkipped  = "skipped" // no eligible injection point for this draw
)

// Detectors (how a detected trial was caught).
const (
	DetectFault    = "fault"
	DetectWatchdog = "watchdog"
	DetectLockstep = "lockstep-divergence"
	DetectEndState = "end-state-divergence"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed drives every random choice; identical seeds reproduce the
	// campaign trial for trial.
	Seed int64
	// Injections is the number of applied corruptions to accumulate
	// (skipped draws do not count). Defaults to 200.
	Injections int
	// Sites restricts the campaign; empty means AllSites.
	Sites []Site
}

// Trial records one injection attempt.
type Trial struct {
	Site     Site   `json:"site"`
	Victim   string `json:"victim"` // workload/variant or the ctx program
	Step     int    `json:"step"`   // retired-instruction index of the injection
	Detail   string `json:"detail"` // what was corrupted
	Outcome  string `json:"outcome"`
	Detector string `json:"detector,omitempty"` // set when detected
	Fault    string `json:"fault,omitempty"`    // fault kind for DetectFault/DetectWatchdog
}

// SiteStats aggregates one site's trials.
type SiteStats struct {
	Injected int `json:"injected"`
	Detected int `json:"detected"`
	Missed   int `json:"missed"`
}

// Report is the campaign summary, serialized as the cfd-faultinject JSON
// document. Everything in it is deterministic for a given Config.
type Report struct {
	Schema    string `json:"schema"`
	Version   int    `json:"version"`
	Seed      int64  `json:"seed"`
	Requested int    `json:"requested"`

	Injected int `json:"injected"`
	Detected int `json:"detected"`
	Missed   int `json:"missed"`
	Skipped  int `json:"skipped"`

	BySite map[Site]*SiteStats `json:"bySite"`
	Trials []Trial             `json:"trials"`
}

// Run executes a campaign and returns its report. Errors are
// infrastructure failures (a victim program failed to build or the golden
// run itself faulted); injection outcomes, including missed detections,
// are reported in the Report, not as errors.
func Run(cfg Config) (*Report, error) {
	n := cfg.Injections
	if n <= 0 {
		n = 200
	}
	sites := cfg.Sites
	if len(sites) == 0 {
		sites = AllSites
	}
	rep := &Report{
		Schema:    ReportSchema,
		Version:   ReportVersion,
		Seed:      cfg.Seed,
		Requested: n,
		BySite:    make(map[Site]*SiteStats),
	}
	goldens := make(map[string]*golden)
	// Skips are rare (a draw with no eligible entry); the attempt bound
	// only guards against a site that can never apply.
	maxAttempts := 4*n + 64
	for attempt := 0; rep.Injected < n && attempt < maxAttempts; attempt++ {
		site := sites[attempt%len(sites)]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*0x9E3779B9))
		tr, err := runTrial(site, rng, goldens)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s trial %d: %w", site, attempt, err)
		}
		rep.Trials = append(rep.Trials, tr)
		st := rep.BySite[site]
		if st == nil {
			st = &SiteStats{}
			rep.BySite[site] = st
		}
		switch tr.Outcome {
		case OutcomeSkipped:
			rep.Skipped++
		case OutcomeDetected:
			rep.Injected++
			rep.Detected++
			st.Injected++
			st.Detected++
		case OutcomeMissed:
			rep.Injected++
			rep.Missed++
			st.Injected++
			st.Missed++
		}
	}
	return rep, nil
}
