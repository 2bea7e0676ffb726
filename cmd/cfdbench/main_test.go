package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/serve"
)

// TestJSONStdoutPurity pins the `-json -` contract: whatever other flags
// are set (-metrics progress lines, -keep-going), stdout carries exactly
// one decodable JSON document and every human-readable line lands on
// stderr.
func TestJSONStdoutPurity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig18", "-scale", "0.05", "-jobs", "2",
		"-metrics", "-keep-going", "-json", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}

	doc, err := export.Decode(bytes.NewReader(stdout.Bytes()))
	if err != nil {
		t.Fatalf("stdout is not one clean JSON document: %v\nstdout:\n%.2000s", err, stdout.String())
	}
	if len(doc.Runs) == 0 {
		t.Error("decoded document has no runs")
	}

	// The tables and the per-simulation progress moved to stderr.
	if strings.Contains(stdout.String(), "### fig18") {
		t.Error("experiment table header leaked onto stdout")
	}
	if !strings.Contains(stderr.String(), "### fig18") {
		t.Error("experiment table header missing from stderr")
	}
	if !strings.Contains(stderr.String(), "hit rate") {
		t.Error("-metrics progress lines missing from stderr")
	}
}

// TestStoreResumeConverges pins the -store resume contract end to end: a
// rerun over a store with missing and corrupted entries re-simulates only
// those cells and produces byte-identical stdout tables and JSON (after
// stripping the process-history-dependent store section, exactly as the CI
// resume gate does with jq 'del(.store)').
func TestStoreResumeConverges(t *testing.T) {
	dir := t.TempDir()
	storeDir := dir + "/store"
	args := func() []string {
		return []string{"-exp", "fig18", "-scale", "0.05", "-jobs", "2",
			"-store", storeDir, "-json", "-"}
	}
	invoke := func() (stdoutTables string, stripped []byte, doc *export.Document) {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), args(), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		doc, err := export.Decode(bytes.NewReader(stdout.Bytes()))
		if err != nil {
			t.Fatalf("decoding stdout: %v", err)
		}
		if doc.Store == nil {
			t.Fatal("document from a -store run has no store section")
		}
		doc.Store = nil
		stripped, err = json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return stderr.String(), stripped, doc
	}

	_, first, firstDoc := invoke()
	if firstDoc.Experiments[0].Metrics.Simulations == 0 {
		t.Fatal("first run simulated nothing")
	}

	// Sabotage the store: delete one record from the run's log, bit-flip
	// another.
	logs, err := filepath.Glob(storeDir + "/logs/*.log")
	if err != nil || len(logs) != 1 {
		t.Fatalf("store has logs %v (err %v); want the first run's one", logs, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	records := bytes.SplitAfter(data, []byte("\n"))
	if len(records) < 4 { // the last element is what follows the final newline
		t.Fatalf("store has %d records; need at least 3", len(records)-1)
	}
	flipped := records[1]
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(logs[0], bytes.Join(records[1:], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	_, second, _ := invoke()
	if !bytes.Equal(first, second) {
		t.Errorf("resumed run's document (store section stripped) differs from the original\nfirst:  %.2000s\nsecond: %.2000s", first, second)
	}

	// The corrupt entry must have been quarantined, not trusted.
	q, err := filepath.Glob(storeDir + "/quarantine/*.log@*[0-9]")
	if err != nil || len(q) == 0 {
		t.Errorf("corrupt entry was not quarantined (err %v)", err)
	}

	// Third run: the store is healed, so nothing re-simulates.
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), " 0 misses,") {
		t.Errorf("healed store still missed:\n%s", stderr.String())
	}
}

// TestEtaString pins the ETA text of a -metrics line, from the tracker's
// simulated-only estimate to its rendering: a sweep with no fresh
// simulations yet (the store-hit prefix of a resumed run) and a finished
// sweep both report "-"; otherwise the estimate is the per-simulation
// cost times the outstanding specs.
func TestEtaString(t *testing.T) {
	cases := []struct {
		elapsed                   time.Duration
		simDone, completed, total int
		want                      string
	}{
		{10 * time.Second, 0, 5, 10, "-"},   // store hits only: no basis yet
		{10 * time.Second, 5, 10, 10, "-"},  // sweep complete
		{10 * time.Second, 10, 12, 10, "-"}, // restarted-counter edge: never negative
		{10 * time.Second, 5, 5, 10, "10s"}, // 2s/sim, 5 outstanding
		// Resumed sweep: 8 store hits + 2 fresh sims in 4s. The simulated-only
		// denominator gives 2s/sim × 90 left, not the 0.4s/cell blended rate.
		{4 * time.Second, 2, 10, 100, "3m0s"},
	}
	for i, tc := range cases {
		sw := serve.SweepStatus{Running: true, Total: tc.total, Completed: tc.completed,
			Simulated: tc.simDone, ElapsedSec: tc.elapsed.Seconds()}
		sw.ETASec = serve.ETA(sw)
		if got := etaText(&sw); got != tc.want {
			t.Errorf("case %d: etaText = %q, want %q", i, got, tc.want)
		}
	}
}

// TestJournalEndToEnd drives -journal, -listen, -host-sample, and -json
// together through run(): the journal on disk validates, every completion
// it records as stored is actually in the store (the invariant the CI
// resume gate checks after a SIGKILL), the live server announces itself,
// and the exported document carries the journal section.
func TestJournalEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.journal")
	storeDir := filepath.Join(dir, "store")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig18", "-scale", "0.05", "-jobs", "2",
		"-store", storeDir, "-journal", jpath,
		"-listen", "127.0.0.1:0", "-host-sample", "20ms",
		"-json", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "serving /metrics") {
		t.Errorf("-listen did not announce its address:\n%s", stderr.String())
	}

	events, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Validate(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Truncated {
		t.Error("cleanly closed journal reads as truncated")
	}
	if sum.Sweeps == 0 || sum.Done == 0 || sum.OK != sum.Done {
		t.Fatalf("journal summary = %+v", sum)
	}
	if sum.HostSamples == 0 {
		t.Error("-host-sample journaled no host samples")
	}

	st, err := harness.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	keys := journal.CompletedKeys(events, true)
	if len(keys) == 0 {
		t.Fatal("journal records no stored completions")
	}
	for _, k := range keys {
		if _, ok, err := st.Get(k); err != nil || !ok {
			t.Fatalf("journaled stored key %q not in store (ok=%v err=%v)", k, ok, err)
		}
	}

	doc, err := export.Decode(bytes.NewReader(stdout.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Journal == nil {
		t.Fatal("exported document has no journal section")
	}
	if doc.Journal.Path != jpath || doc.Journal.Schema != journal.Schema ||
		doc.Journal.Version != journal.Version || doc.Journal.Events == 0 {
		t.Fatalf("document journal section = %+v", doc.Journal)
	}
}

// TestJournalSortedCanonical pins the -journal-sorted CLI contract: the
// file is rewritten on exit into the canonical replay — no per-process
// seq/ts fields — and is byte-identical across -jobs settings.
func TestJournalSortedCanonical(t *testing.T) {
	sorted := func(jobs string) []byte {
		jpath := filepath.Join(t.TempDir(), "sweep.journal")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-exp", "fig18", "-scale", "0.05",
			"-jobs", jobs, "-journal", jpath, "-journal-sorted"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := sorted("1"), sorted("4")
	if !bytes.Equal(a, b) {
		t.Errorf("sorted journal differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
	if bytes.Contains(a, []byte(`"seq"`)) || bytes.Contains(a, []byte(`"ts"`)) {
		t.Error("sorted journal retains per-process seq/ts fields")
	}
}

// TestTraceOutCanonical pins the -trace-out CLI contract: the sweep trace,
// rendered from the journal, is byte-identical across -jobs settings.
func TestTraceOutCanonical(t *testing.T) {
	trace := func(jobs string) []byte {
		path := filepath.Join(t.TempDir(), "sweeps.json")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-exp", "fig18", "-scale", "0.05",
			"-jobs", jobs, "-trace-out", path}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := trace("1"), trace("4")
	if !bytes.Equal(a, b) {
		t.Errorf("trace differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%.2000s\n--- jobs=4\n%.2000s", a, b)
	}
	if !bytes.Contains(a, []byte(`"ph": "X"`)) {
		t.Errorf("trace has no spans:\n%.2000s", a)
	}
}

// TestTraceOutStdout: -trace-out - owns stdout as -json - does: all of
// stdout is one well-formed trace, and the tables go to stderr. The two
// documents together are bad usage.
func TestTraceOutStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig18", "-scale", "0.02", "-jobs", "2",
		"-trace-out", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if n, err := obs.ValidateTrace(bytes.NewReader(stdout.Bytes())); err != nil || n == 0 {
		t.Errorf("stdout is not one trace with events (%d events): %v\n%.500s", n, err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "### fig18") {
		t.Error("experiment table missing from stderr")
	}

	stdout.Reset()
	code = run(context.Background(), []string{"-exp", "fig18", "-json", "-", "-trace-out", "-"}, &stdout, &stderr)
	if code != exitUsage || stdout.Len() != 0 {
		t.Errorf("-json - with -trace-out -: exit %d with %d bytes of stdout, want %d and none", code, stdout.Len(), exitUsage)
	}
}

// TestMetricsLines pins the -metrics line format and its numbering: one
// line per spec of each sweep, [1/N] through [N/N] once each.
func TestMetricsLines(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig18,fig24", "-scale", "0.05", "-jobs", "2",
		"-metrics", "-store", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	// "  [k/N] <label padded to 48> ok|FAIL  hit rate NN%  store hits N  eta <dur|->"
	line := regexp.MustCompile(`^  \[(\d+)/(\d+)\] (\S+/\S+ @ .+?) (ok  |FAIL)  hit rate [ \d]{2}\d%  store hits \d+  eta (-|[0-9.hms]+)$`)
	seen := map[string]int{} // "k/N" → count
	totals := map[int]bool{}
	for _, ln := range strings.Split(stderr.String(), "\n") {
		if !strings.HasPrefix(ln, "  [") {
			continue
		}
		m := line.FindStringSubmatch(ln)
		if m == nil || len(m[3]) < 48 {
			t.Errorf("malformed -metrics line %q", ln)
			continue
		}
		seen[m[1]+"/"+m[2]]++
		n, _ := strconv.Atoi(m[2])
		totals[n] = true
	}
	if len(totals) == 0 {
		t.Fatalf("no -metrics lines in:\n%s", stderr.String())
	}
	want := 0
	for n := range totals {
		want += n
		for k := 1; k <= n; k++ {
			if seen[fmt.Sprintf("%d/%d", k, n)] == 0 {
				t.Errorf("no line [%d/%d]", k, n)
			}
		}
	}
	got := 0
	for _, c := range seen {
		got += c
	}
	if got != want {
		t.Errorf("%d -metrics lines for sweeps totalling %d specs", got, want)
	}
}

// TestInterruptExitCode pins the drain contract's exit code: a cancelled
// context (what SIGINT/SIGTERM produce via signal.NotifyContext) makes run
// skip the sweeps and exit with the distinct resumable code 3.
func TestInterruptExitCode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-exp", "fig18", "-scale", "0.05",
		"-store", t.TempDir()}, &stdout, &stderr)
	if code != exitInterrupted {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitInterrupted, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume") {
		t.Errorf("interrupted exit did not mention resuming:\n%s", stderr.String())
	}
}

// TestListShowsSpecCounts: -list prints each experiment's embedded-
// manifest expansion size, with "-" for experiments that sweep no specs.
func TestListShowsSpecCounts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	lines := map[string]string{}
	for _, ln := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(ln)
		if len(f) >= 2 {
			lines[f[0]] = f[1]
		}
	}
	e, _ := harness.ByID("fig18")
	specs, err := e.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(len(specs)); lines["fig18"] != want {
		t.Errorf("fig18 spec count column = %q, want %q", lines["fig18"], want)
	}
	if lines["ablation-ifconv"] != "15" {
		t.Errorf("ablation-ifconv spec count column = %q, want \"15\"", lines["ablation-ifconv"])
	}
	if lines["table5"] != "-" {
		t.Errorf("table5 spec count column = %q, want \"-\"", lines["table5"])
	}
}

// TestManifestExpandDeterministicAcrossJobs: the -manifest-expand dry run
// is byte-identical whatever -jobs is set to — the sorted spec-key list is
// a pure function of the manifest.
func TestManifestExpandDeterministicAcrossJobs(t *testing.T) {
	expand := func(jobs string) string {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-manifest", "../../examples/manifest/sweep.json",
			"-manifest-expand", "-jobs", jobs}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		return stdout.String()
	}
	a, b := expand("1"), expand("8")
	if a != b {
		t.Fatal("-manifest-expand output differs across -jobs settings")
	}
	if !strings.Contains(a, "96 specs") {
		t.Errorf("expand header: %q", strings.SplitN(a, "\n", 2)[0])
	}
	if got := strings.Count(a, "\n"); got != 97 { // header + 96 keys
		t.Errorf("expand printed %d lines, want 97", got)
	}
}

// TestManifestEndToEnd: a -manifest sweep persists to the store, exports a
// deterministic manifest provenance section, stamps the journal's
// sweep_start with the manifest digest, and a rerun with the same store
// converges without re-simulating.
func TestManifestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mfPath := filepath.Join(dir, "m.json")
	doc := `{
	  "schema": "cfd-manifest", "version": 1, "name": "e2e",
	  "sweeps": [{
	    "workloads": {"names": ["mcflike", "soplexlike"]},
	    "variants": [{"variant": "base"}, {"variant": "cfd"}],
	    "configs": [{"set": {"FrontEndDepth": 12}}]
	  }]
	}`
	if err := os.WriteFile(mfPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	jPath := filepath.Join(dir, "run.journal")

	sweep := func(journalPath string) *export.Document {
		var stdout, stderr bytes.Buffer
		args := []string{"-manifest", mfPath, "-scale", "0.05", "-store", storeDir, "-json", "-"}
		if journalPath != "" {
			args = append(args, "-journal", journalPath)
		}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		d, err := export.Decode(bytes.NewReader(stdout.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return d
	}

	first := sweep(jPath)
	if first.Manifest == nil {
		t.Fatal("document has no manifest section")
	}
	if first.Manifest.Name != "e2e" || first.Manifest.Specs != 4 ||
		first.Manifest.Schema != "cfd-manifest" || first.Manifest.Digest == "" {
		t.Fatalf("manifest section: %+v", first.Manifest)
	}
	if len(first.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(first.Runs))
	}

	// The journal's sweep_start carries the manifest digest.
	jdata, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jdata), `"manifest":"`+first.Manifest.Digest+`"`) {
		t.Error("journal sweep_start does not carry the manifest digest")
	}

	// Rerun: everything restores from the store; the deterministic sections
	// (runs + manifest) are identical.
	second := sweep("")
	if !reflect.DeepEqual(first.Runs, second.Runs) {
		t.Error("resumed run's runs section diverges")
	}
	if !reflect.DeepEqual(first.Manifest, second.Manifest) {
		t.Error("manifest sections diverge across runs")
	}
	if second.Store == nil || second.Store.Metrics.Hits != 4 || second.Store.Metrics.Misses != 0 {
		t.Errorf("rerun store metrics: %+v", second.Store)
	}
}

// TestManifestExpandRequiresManifest: -manifest-expand without -manifest
// is a usage error, and a bad manifest file fails before simulating.
func TestManifestBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-manifest-expand"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-manifest-expand alone: exit %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-manifest", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad manifest: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "schema") {
		t.Errorf("bad-manifest error not reported: %s", stderr.String())
	}
}
