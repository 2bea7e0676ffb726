package config

import (
	"maps"
	"reflect"
	"testing"
)

func TestSandyBridgeValid(t *testing.T) {
	c := SandyBridge()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ROBSize != 168 || c.FrontEndDepth != 10 || c.NumCheckpoints != 8 {
		t.Errorf("baseline parameters drifted: %+v", c)
	}
	if c.BQSize != 128 || c.TQSize != 256 {
		t.Errorf("queue sizes: BQ=%d TQ=%d, want 128,256", c.BQSize, c.TQSize)
	}
}

func TestScaledWindows(t *testing.T) {
	for _, rob := range []int{256, 384, 512, 640} {
		c := Scaled(rob)
		if err := c.Validate(); err != nil {
			t.Fatalf("Scaled(%d): %v", rob, err)
		}
		if c.ROBSize != rob {
			t.Errorf("ROB = %d, want %d", c.ROBSize, rob)
		}
		base := SandyBridge()
		if c.IQSize <= base.IQSize || c.LQSize <= base.LQSize {
			t.Errorf("Scaled(%d) did not scale IQ/LQ: %d,%d", rob, c.IQSize, c.LQSize)
		}
		if c.NumCheckpoints != base.NumCheckpoints {
			t.Errorf("checkpoint count must stay fixed across windows")
		}
	}
}

func TestScaledNoShrink(t *testing.T) {
	c := Scaled(64)
	if c.ROBSize != SandyBridge().ROBSize {
		t.Errorf("Scaled below baseline must clamp, got ROB %d", c.ROBSize)
	}
}

func TestWindowSweep(t *testing.T) {
	sweep := WindowSweep()
	if len(sweep) != 5 || sweep[0].ROBSize != 168 || sweep[4].ROBSize != 640 {
		t.Errorf("sweep = %v", sweep)
	}
}

func TestWithDepth(t *testing.T) {
	c := SandyBridge().WithDepth(20)
	if c.FrontEndDepth != 20 {
		t.Errorf("depth = %d", c.FrontEndDepth)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// validateCases are the admission table: each case sets one leaf, and
// Validate must accept it (ok) or reject it. Every validated leaf has at
// least one reject case (TestValidateCoversEveryLeaf).
var validateCases = []struct {
	leaf string
	set  func(*Core)
	ok   bool
}{
	{"FetchWidth", func(c *Core) { c.FetchWidth = 1 }, true},
	{"FetchWidth", func(c *Core) { c.FetchWidth = 0 }, false},
	{"RenameWidth", func(c *Core) { c.RenameWidth = 0 }, false},
	{"IssueWidth", func(c *Core) { c.IssueWidth = -1 }, false},
	{"RetireWidth", func(c *Core) { c.RetireWidth = 0 }, false},
	{"ALUPorts", func(c *Core) { c.ALUPorts = 1 }, true},
	{"ALUPorts", func(c *Core) { c.ALUPorts = 0 }, false},
	{"MemPorts", func(c *Core) { c.MemPorts = 0 }, false},
	{"BrPorts", func(c *Core) { c.BrPorts = 2 }, true},
	{"BrPorts", func(c *Core) { c.BrPorts = 0 }, false},
	{"FrontEndDepth", func(c *Core) { c.FrontEndDepth = 3 }, true},
	{"FrontEndDepth", func(c *Core) { c.FrontEndDepth = 2 }, false},
	{"ROBSize", func(c *Core) { c.ROBSize = 0 }, false},
	{"IQSize", func(c *Core) { c.IQSize = 0 }, false},
	{"LQSize", func(c *Core) { c.LQSize = 0 }, false},
	{"SQSize", func(c *Core) { c.SQSize = 0 }, false},
	{"NumPhysRegs", func(c *Core) { c.NumPhysRegs = c.ROBSize }, true},
	{"NumPhysRegs", func(c *Core) { c.NumPhysRegs = 10 }, false},
	{"NumCheckpoints", func(c *Core) { c.NumCheckpoints = 0 }, true},
	{"NumCheckpoints", func(c *Core) { c.NumCheckpoints = -1 }, false},
	{"MulLatency", func(c *Core) { c.MulLatency = 1 }, true},
	{"MulLatency", func(c *Core) { c.MulLatency = 0 }, false},
	{"DivLatency", func(c *Core) { c.DivLatency = 0 }, false},
	{"BQSize", func(c *Core) { c.BQSize = 1 }, true},
	{"BQSize", func(c *Core) { c.BQSize = 0 }, false},
	{"VQSize", func(c *Core) { c.VQSize = 0 }, false},
	{"VQSize", func(c *Core) { c.VQSize = c.NumPhysRegs }, false},
	{"TQSize", func(c *Core) { c.TQSize = 0 }, false},
	{"BQMissPolicy", func(c *Core) { c.BQMissPolicy = StallFetch }, true},
	{"BQMissPolicy", func(c *Core) { c.BQMissPolicy = StallFetch + 1 }, false},
	{"Predictor", func(c *Core) { c.Predictor = PredBimodal }, true},
	{"Predictor", func(c *Core) { c.Predictor = PredBimodal + 1 }, false},
	{"BTBLogSets", func(c *Core) { c.BTBLogSets = 0 }, true},
	{"BTBLogSets", func(c *Core) { c.BTBLogSets = -1 }, false},
	{"BTBLogSets", func(c *Core) { c.BTBLogSets = 64 }, false},
	{"BTBWays", func(c *Core) { c.BTBWays = 3 }, true},
	{"BTBWays", func(c *Core) { c.BTBWays = 0 }, false},
	{"RASDepth", func(c *Core) { c.RASDepth = 1 }, true},
	{"RASDepth", func(c *Core) { c.RASDepth = 0 }, false},
	{"Cache.LineBytes", func(c *Core) { c.Cache.LineBytes = 32 }, true},
	{"Cache.LineBytes", func(c *Core) { c.Cache.LineBytes = 48 }, false},
	{"Cache.LineBytes", func(c *Core) { c.Cache.LineBytes = 0 }, false},
	{"Cache.MemLatency", func(c *Core) { c.Cache.MemLatency = 1 }, true},
	{"Cache.MemLatency", func(c *Core) { c.Cache.MemLatency = 0 }, false},
	{"Cache.NumMSHRs", func(c *Core) { c.Cache.NumMSHRs = 1 }, true},
	{"Cache.NumMSHRs", func(c *Core) { c.Cache.NumMSHRs = 0 }, false},
	{"Cache.L1.SizeKB", func(c *Core) { c.Cache.L1.SizeKB = 64 }, true},
	{"Cache.L1.SizeKB", func(c *Core) { c.Cache.L1.SizeKB = 3 }, false},
	{"Cache.L1.SizeKB", func(c *Core) { c.Cache.L1.SizeKB = 0 }, false},
	{"Cache.L1.Ways", func(c *Core) { c.Cache.L1.Ways = 4 }, true},
	{"Cache.L1.Ways", func(c *Core) { c.Cache.L1.Ways = 0 }, false},
	{"Cache.L1.Ways", func(c *Core) { c.Cache.L1.Ways = 3 }, false},
	{"Cache.L1.Latency", func(c *Core) { c.Cache.L1.Latency = 1 }, true},
	{"Cache.L1.Latency", func(c *Core) { c.Cache.L1.Latency = 0 }, false},
	{"Cache.L2.SizeKB", func(c *Core) { c.Cache.L2.SizeKB = 96 }, false},
	{"Cache.L2.Ways", func(c *Core) { c.Cache.L2.Ways = 0 }, false},
	{"Cache.L2.Latency", func(c *Core) { c.Cache.L2.Latency = 0 }, false},
	{"Cache.L3.SizeKB", func(c *Core) { c.Cache.L3.SizeKB = 1 }, true},
	{"Cache.L3.SizeKB", func(c *Core) { c.Cache.L3.SizeKB = -2048 }, false},
	{"Cache.L3.Ways", func(c *Core) { c.Cache.L3.Ways = 12 }, false},
	{"Cache.L3.Latency", func(c *Core) { c.Cache.L3.Latency = 0 }, false},
}

// TestValidateCatchesErrors runs the admission table: the baseline with
// one leaf set must be accepted or rejected as the case says.
func TestValidateCatchesErrors(t *testing.T) {
	for i, tc := range validateCases {
		c := SandyBridge()
		tc.set(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("case %d (%s): Validate() = %v, want ok=%v", i, tc.leaf, err, tc.ok)
		}
	}
}

// freeLeaves are the Core leaves any value of their type is valid for.
var freeLeaves = map[string]bool{
	"Name":                   true,
	"CkptOoOReclaim":         true,
	"CkptConfGuided":         true,
	"ConfidenceThresh":       true,
	"Cache.SampleMSHRs":      true,
	"Cache.NextLinePrefetch": true,
	"Cache.L1.Name":          true,
	"Cache.L2.Name":          true,
	"Cache.L3.Name":          true,
}

// TestValidateCoversEveryLeaf walks every leaf of Core and requires it to
// be either free or validated, with a reject case in the admission table,
// so a new field cannot skip the check.
func TestValidateCoversEveryLeaf(t *testing.T) {
	free := maps.Clone(freeLeaves)
	rejected := map[string]bool{}
	for _, tc := range validateCases {
		if !tc.ok {
			rejected[tc.leaf] = true
		}
	}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", f.Type)
				continue
			}
			switch {
			case free[path] && rejected[path]:
				t.Errorf("leaf %s is listed as free but has a reject case", path)
			case !free[path] && !rejected[path]:
				t.Errorf("leaf %s is neither free nor validated: add a reject case or list it as free", path)
			}
			delete(free, path)
			delete(rejected, path)
		}
	}
	walk("", reflect.TypeOf(Core{}))
	for path := range free {
		t.Errorf("free leaf %s is not a field of Core", path)
	}
	for path := range rejected {
		t.Errorf("reject case names %s, not a leaf of Core", path)
	}
}

func TestTableII(t *testing.T) {
	tab := TableII()
	if tab["IBM Power7"] != 19 || tab["Intel Pentium 4"] != 20 {
		t.Errorf("Table II values drifted: %v", tab)
	}
}

func TestPolicyStrings(t *testing.T) {
	if SpecPop.String() != "spec" || StallFetch.String() != "stall" {
		t.Error("policy strings")
	}
	if PredISLTAGE.String() != "isl-tage" || PredGshare.String() != "gshare" || PredBimodal.String() != "bimodal" {
		t.Error("predictor strings")
	}
}
