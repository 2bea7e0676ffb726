// Package config defines core configurations: the Sandy Bridge-like
// baseline of the paper's evaluation (Fig 17a), the window-scaling
// configurations used for the large-window studies (Figs 2b, 21b, 23), and
// the pipeline-depth sweep (Fig 21a, Table II).
package config

import (
	"fmt"

	"cfd/internal/cache"
	"cfd/internal/core"
)

// BQMissPolicy selects the fetch unit's behavior when a BranchBQ pop finds
// its predicate not yet pushed (§III-C2, Fig 21c).
type BQMissPolicy uint8

// BQ miss policies.
const (
	// SpecPop predicts the predicate with the branch predictor and takes
	// a checkpoint; the late push confirms or recovers (the paper's
	// default).
	SpecPop BQMissPolicy = iota
	// StallFetch stalls the fetch unit until the push executes.
	StallFetch
)

func (p BQMissPolicy) String() string {
	if p == StallFetch {
		return "stall"
	}
	return "spec"
}

// PredictorKind selects the direction predictor.
type PredictorKind uint8

// Predictor kinds.
const (
	PredISLTAGE PredictorKind = iota
	PredGshare
	PredBimodal
)

func (k PredictorKind) String() string {
	switch k {
	case PredGshare:
		return "gshare"
	case PredBimodal:
		return "bimodal"
	default:
		return "isl-tage"
	}
}

// Core configures the cycle-level processor model.
type Core struct {
	Name string

	// Widths (instructions per cycle).
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	RetireWidth int

	// Per-class issue limits within IssueWidth.
	ALUPorts int
	MemPorts int
	BrPorts  int

	// FrontEndDepth is the minimum fetch-to-execute latency in cycles —
	// the dominant component of the misprediction penalty (Table II;
	// the paper conservatively uses 10).
	FrontEndDepth int

	// Window resources.
	ROBSize     int
	IQSize      int
	LQSize      int
	SQSize      int
	NumPhysRegs int

	// Misprediction recovery.
	NumCheckpoints   int
	CkptOoOReclaim   bool // free a checkpoint at branch resolve, not retire
	CkptConfGuided   bool // only low-confidence branches take checkpoints
	ConfidenceThresh uint8

	// Execution latencies.
	MulLatency int
	DivLatency int

	// CFD hardware.
	BQSize       int
	VQSize       int
	TQSize       int
	BQMissPolicy BQMissPolicy

	// Front-end structures.
	Predictor  PredictorKind
	BTBLogSets int
	BTBWays    int
	RASDepth   int

	// Memory hierarchy.
	Cache cache.Config
}

// SandyBridge returns the paper's baseline core configuration (Fig 17a):
// a 4-wide, 168-entry-window OOO core with an ISL-TAGE predictor, 8
// confidence-guided checkpoints with out-of-order reclamation, and a
// 10-cycle minimum fetch-to-execute depth.
func SandyBridge() Core {
	return Core{
		Name:        "sandybridge-like",
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  6,
		RetireWidth: 4,
		ALUPorts:    3,
		MemPorts:    2,
		BrPorts:     1,

		FrontEndDepth: 10,

		ROBSize:     168,
		IQSize:      54,
		LQSize:      64,
		SQSize:      36,
		NumPhysRegs: 168 + 64,

		NumCheckpoints:   8,
		CkptOoOReclaim:   true,
		CkptConfGuided:   true,
		ConfidenceThresh: 7,

		MulLatency: 3,
		DivLatency: 20,

		BQSize:       core.DefaultBQSize,
		VQSize:       core.DefaultVQSize,
		TQSize:       core.DefaultTQSize,
		BQMissPolicy: SpecPop,

		Predictor:  PredISLTAGE,
		BTBLogSets: 10,
		BTBWays:    4,
		RASDepth:   16,

		Cache: cache.DefaultConfig(),
	}
}

// Scaled returns the baseline scaled to a larger instruction window, as in
// the paper's future-processor projections: ROB sizes 168 through 640 with
// IQ/LQ/SQ/PRF scaled proportionally. The checkpoint policy and count stay
// fixed (§VI).
func Scaled(robSize int) Core {
	c := SandyBridge()
	if robSize <= c.ROBSize {
		c.Name = fmt.Sprintf("window-%d", c.ROBSize)
		return c
	}
	f := float64(robSize) / float64(c.ROBSize)
	c.Name = fmt.Sprintf("window-%d", robSize)
	c.ROBSize = robSize
	c.IQSize = int(float64(c.IQSize) * f)
	c.LQSize = int(float64(c.LQSize) * f)
	c.SQSize = int(float64(c.SQSize) * f)
	c.NumPhysRegs = robSize + 64
	return c
}

// WindowSweep returns the window-scaling study configurations (Figs 2b,
// 21b, 23).
func WindowSweep() []Core {
	sizes := []int{168, 256, 384, 512, 640}
	cs := make([]Core, len(sizes))
	for i, s := range sizes {
		cs[i] = Scaled(s)
	}
	return cs
}

// WithDepth returns c with a different fetch-to-execute depth (Fig 21a).
func (c Core) WithDepth(depth int) Core {
	c.FrontEndDepth = depth
	c.Name = fmt.Sprintf("%s-depth%d", c.Name, depth)
	return c
}

// Validate reports configuration mistakes early. Every leaf of Core is
// either checked here or free to take any value of its type (the split is
// pinned by TestValidateCoversEveryLeaf), so a core that passes builds
// and runs: no port, way or MSHR count of zero, no set count the index
// mask would truncate, and no latency that schedules an event in the cycle
// it was issued.
func (c Core) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.RenameWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("config %s: widths must be positive", c.Name)
	case c.ALUPorts <= 0 || c.MemPorts <= 0 || c.BrPorts <= 0:
		return fmt.Errorf("config %s: issue ports must be positive", c.Name)
	case c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0:
		return fmt.Errorf("config %s: window resources must be positive", c.Name)
	case c.NumPhysRegs < c.ROBSize:
		return fmt.Errorf("config %s: %d physical registers cannot back a %d-entry ROB",
			c.Name, c.NumPhysRegs, c.ROBSize)
	case c.NumPhysRegs < c.VQSize+40:
		// Every VQ push pins a physical register until its pop retires
		// (§IV-B2), so a full VQ plus the logical state must fit in the
		// PRF or the rename stage can deadlock.
		return fmt.Errorf("config %s: %d physical registers cannot hold a full %d-entry VQ plus logical state",
			c.Name, c.NumPhysRegs, c.VQSize)
	case c.FrontEndDepth < 3:
		return fmt.Errorf("config %s: fetch-to-execute depth %d below model minimum 3",
			c.Name, c.FrontEndDepth)
	case c.BQSize <= 0 || c.VQSize <= 0 || c.TQSize <= 0:
		return fmt.Errorf("config %s: queue sizes must be positive", c.Name)
	case c.NumCheckpoints < 0:
		return fmt.Errorf("config %s: negative checkpoint count", c.Name)
	case c.MulLatency <= 0 || c.DivLatency <= 0:
		return fmt.Errorf("config %s: execution latencies must be at least 1 cycle", c.Name)
	case c.BQMissPolicy > StallFetch:
		return fmt.Errorf("config %s: unknown BQ miss policy %d", c.Name, c.BQMissPolicy)
	case c.Predictor > PredBimodal:
		return fmt.Errorf("config %s: unknown predictor %d", c.Name, c.Predictor)
	case c.BTBLogSets < 0 || c.BTBLogSets > maxBTBLogSets:
		return fmt.Errorf("config %s: BTB log2 sets %d outside [0,%d]", c.Name, c.BTBLogSets, maxBTBLogSets)
	case c.BTBWays <= 0:
		return fmt.Errorf("config %s: BTB ways must be positive", c.Name)
	case c.RASDepth <= 0:
		return fmt.Errorf("config %s: RAS depth must be positive", c.Name)
	}
	if err := validateCache(c.Cache); err != nil {
		return fmt.Errorf("config %s: %w", c.Name, err)
	}
	return nil
}

// maxBTBLogSets bounds the BTB at 2^20 sets, 1024 times the baseline's; the
// bound also keeps the entry count's shift in range.
const maxBTBLogSets = 20

// validateCache checks the hierarchy's leaves: the cache indexes a set by
// masking the line address, so the line size and every level's set count
// must be powers of two.
func validateCache(c cache.Config) error {
	switch {
	case !isPow2(c.LineBytes):
		return fmt.Errorf("cache line of %d bytes is not a power of two", c.LineBytes)
	case c.NumMSHRs <= 0:
		return fmt.Errorf("MSHR count must be positive")
	case c.MemLatency == 0:
		return fmt.Errorf("memory latency must be at least 1 cycle")
	}
	for _, l := range []cache.LevelConfig{c.L1, c.L2, c.L3} {
		switch {
		case l.Ways <= 0 || l.SizeKB <= 0:
			return fmt.Errorf("cache level %s: size and ways must be positive", l.Name)
		case l.Latency == 0:
			return fmt.Errorf("cache level %s: latency must be at least 1 cycle", l.Name)
		case l.SizeKB*1024%(c.LineBytes*l.Ways) != 0 || !isPow2(l.SizeKB*1024/(c.LineBytes*l.Ways)):
			return fmt.Errorf("cache level %s: %d KB of %d-way %d-byte lines is not a power-of-two number of sets",
				l.Name, l.SizeKB, l.Ways, c.LineBytes)
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// TableII reports the minimum fetch-to-execute latencies of contemporary
// cores cited by the paper (Table II), for documentation output.
func TableII() map[string]int {
	return map[string]int{
		"AMD Bobcat":      13,
		"ARM Cortex A15":  14,
		"IBM Power7":      19,
		"Intel Pentium 4": 20,
		"Intel Sandy Bridge (paper baseline, conservative)": 10,
	}
}
