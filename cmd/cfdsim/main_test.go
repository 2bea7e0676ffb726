package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

// cfdsim runs the command with argv and returns its exit code and streams.
func cfdsim(t *testing.T, argv ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestObservabilitySnapshot runs CI's sampled, traced command: its JSON
// document must reproduce the committed occupancy snapshot byte for byte,
// and its Perfetto trace must be well formed.
func TestObservabilitySnapshot(t *testing.T) {
	dir := t.TempDir()
	doc, trace := filepath.Join(dir, "occupancy.json"), filepath.Join(dir, "trace.json")
	code, _, stderr := cfdsim(t, "-workload", "soplexlike", "-variant", "cfd", "-n", "3000",
		"-sample-every", "1000", "-trace-out", trace, "-trace-start", "2000", "-trace-limit", "400",
		"-json", doc)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	got, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_occupancy.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("-json document differs from BENCH_occupancy.json")
	}
	if _, err := obs.ValidateTraceFile(trace); err != nil {
		t.Error(err)
	}
}

// TestTraceOutStdout: -trace-out - writes the trace to the stdout run was
// given, and nothing else: all of stdout is one well-formed trace, and the
// run's statistics go to stderr.
func TestTraceOutStdout(t *testing.T) {
	code, stdout, stderr := cfdsim(t, "-workload", "soplexlike", "-variant", "cfd", "-n", "2000",
		"-trace-out", "-", "-trace-limit", "100")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	n, err := obs.ValidateTrace(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not one trace: %v\n%.500s", err, stdout)
	}
	if n == 0 {
		t.Error("trace on stdout has no events")
	}
	if !strings.HasPrefix(stderr, "workload ") {
		t.Errorf("stderr does not open with the statistics:\n%.500s", stderr)
	}
}

// TestJSONStdout: -json - puts exactly one decodable document on stdout,
// holding the run; the statistics, -branches and -pipeview go to stderr.
func TestJSONStdout(t *testing.T) {
	code, stdout, stderr := cfdsim(t, "-workload", "soplexlike", "-variant", "cfd", "-n", "2000",
		"-branches", "-pipeview", "20", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	doc, err := export.Decode(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not one document: %v\n%.500s", err, stdout)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Workload != "soplexlike" {
		t.Errorf("document holds %d runs, want the one soplexlike run", len(doc.Runs))
	}
	for _, want := range []string{"workload ", "per-branch statistics", "CPI stack"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q", want)
		}
	}
}

// TestStdoutDocumentsConflict: -json - and -trace-out - together are bad
// usage, since both documents would land on stdout.
func TestStdoutDocumentsConflict(t *testing.T) {
	code, stdout, _ := cfdsim(t, "-json", "-", "-trace-out", "-")
	if code != 2 || stdout != "" {
		t.Errorf("exit %d with stdout %q, want 2 and nothing", code, stdout)
	}
}

// TestWatchdogFaultOutputs: a run the cycle budget stops exits 1 and still
// writes a document holding its one fault and a valid journal recording it.
func TestWatchdogFaultOutputs(t *testing.T) {
	dir := t.TempDir()
	docPath, jpath := filepath.Join(dir, "f.json"), filepath.Join(dir, "run.journal")
	code, _, stderr := cfdsim(t, "-workload", "soplexlike", "-variant", "cfd", "-n", "3000",
		"-max-cycles", "5000", "-json", docPath, "-journal", jpath)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	f, err := os.Open(docPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := export.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 0 || len(doc.Faults) != 1 || doc.Faults[0].Kind != "watchdog-expiry" {
		t.Errorf("document has %d runs and faults %+v, want one watchdog-expiry fault", len(doc.Runs), doc.Faults)
	}
	events, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done != 1 || sum.Faults != 1 {
		t.Errorf("journal records %d spec_done with %d faults, want one faulted", sum.Done, sum.Faults)
	}
}

func TestVerifyPrintsOK(t *testing.T) {
	code, stdout, stderr := cfdsim(t, "-workload", "soplexlike", "-variant", "cfd+", "-n", "2000", "-verify")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "verify          OK (retired state matches the functional emulator)\n") {
		t.Errorf("stdout does not open with the verify line:\n%s", stdout)
	}
}

func TestBadFlagExitsUsage(t *testing.T) {
	if code, _, _ := cfdsim(t, "-no-such-flag"); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

// TestBranchesOrder: -branches lists the most mispredicted branches first
// and breaks ties by PC, so the listing is the same on every run. The
// workload has several branches tied at zero mispredictions.
func TestBranchesOrder(t *testing.T) {
	code, stdout, stderr := cfdsim(t, "-workload", "astar2like", "-variant", "cfdbqtq", "-n", "2000", "-branches")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	_, rows, ok := strings.Cut(stdout, "per-branch statistics (retired):\n")
	if !ok {
		t.Fatalf("no per-branch listing:\n%s", stdout)
	}
	var got []uint64
	for _, row := range strings.Split(strings.TrimSpace(rows), "\n") {
		fields := strings.Fields(row)
		pc, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		got = append(got, pc)
	}

	rs := harness.RunSpec{Workload: "astar2like", Variant: workload.CFDBQTQ, Config: config.Scaled(168).WithDepth(10)}
	b, err := harness.NewBuild(rs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := harness.Simulate(rs, b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	br := res.Stats.PerBranch
	want := make([]uint64, 0, len(br))
	for pc := range br {
		want = append(want, pc)
	}
	sort.Slice(want, func(i, j int) bool {
		if mi, mj := br[want[i]].Mispredicts, br[want[j]].Mispredicts; mi != mj {
			return mi > mj
		}
		return want[i] < want[j]
	})
	ties := false
	for i := 1; i < len(want); i++ {
		ties = ties || br[want[i-1]].Mispredicts == br[want[i]].Mispredicts
	}
	if !ties {
		t.Fatal("no tied branches: the run does not exercise the tie order")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("listed PCs %v, want %v", got, want)
	}
}
