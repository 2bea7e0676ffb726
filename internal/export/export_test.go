package export

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/harness"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

// -update regenerates the golden file:
//
//	go test ./internal/export/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// exportScale is tiny on purpose: the golden pins the exact serialized
// shape (field names, ordering, formatting), not paper-scale numbers.
const exportScale = 0.02

func buildDoc(t *testing.T, jobs int) *Document {
	t.Helper()
	r := harness.NewRunner(exportScale)
	r.Jobs = jobs
	e, ok := harness.ByID("fig18")
	if !ok {
		t.Fatal("experiment fig18 not registered")
	}
	before := r.Metrics()
	if err := r.RunExperiment(context.Background(), e, io.Discard); err != nil {
		t.Fatal(err)
	}
	return Build("cfdbench", r, []Experiment{
		{ID: e.ID, Title: e.Title, Metrics: r.Metrics().Sub(before)},
	})
}

func encode(t *testing.T, doc *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenExport pins the serialized document byte for byte: any schema
// drift (field rename, reordering, changed formatting) shows up as a diff
// against the committed golden.
func TestGoldenExport(t *testing.T) {
	got := encode(t, buildDoc(t, 1))
	path := filepath.Join("testdata", "fig18.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from %s (rerun with -update if the change is intended)", path)
	}
}

// TestExportDeterminism is the acceptance gate for the -json flag: the
// document must be byte-identical whether the simulations ran serially or
// fanned out across 8 workers.
func TestExportDeterminism(t *testing.T) {
	serial := encode(t, buildDoc(t, 1))
	parallel := encode(t, buildDoc(t, 8))
	if !bytes.Equal(serial, parallel) {
		t.Error("export differs between Jobs=1 and Jobs=8")
	}
}

// TestRoundTrip encodes a document and decodes it back: every field must
// survive, including the CPI stack's custom bucket-name object encoding.
func TestRoundTrip(t *testing.T) {
	doc := buildDoc(t, 0)
	got, err := Decode(bytes.NewReader(encode(t, doc)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, doc)
	}
	if len(doc.Runs) == 0 {
		t.Fatal("document has no runs")
	}
	for _, run := range doc.Runs {
		if err := run.CPIStack.Check(run.Counters.Cycles); err != nil {
			t.Errorf("%s/%s: %v", run.Workload, run.Variant, err)
		}
	}
}

// TestDecodeRejectsDrift: wrong schema name or a newer version must fail
// loudly instead of being silently misread.
func TestDecodeRejectsDrift(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"other","version":1}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := Decode(strings.NewReader(`{"schema":"cfd-results","version":99}`)); err == nil {
		t.Error("future version accepted")
	}
}

// TestFromResultShape spot-checks the conversion on a single run.
func TestFromResultShape(t *testing.T) {
	r := harness.NewRunner(exportScale)
	res, err := r.Run(harness.RunSpec{
		Workload: "bzip2like", Variant: workload.CFD, Config: config.SandyBridge(),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := FromResult(res)
	if run.Workload != "bzip2like" || run.Variant != "cfd" {
		t.Errorf("identity fields: %q/%q", run.Workload, run.Variant)
	}
	if run.Counters.Cycles != res.Stats.Cycles || run.Counters.Retired != res.Stats.Retired {
		t.Error("counters do not match the result's stats")
	}
	if run.Energy.Total <= 0 || run.Energy.Total != res.EnergyTotal {
		t.Errorf("energy total %v != %v", run.Energy.Total, res.EnergyTotal)
	}
	if len(run.Energy.Events) == 0 {
		t.Error("no energy events exported")
	}
	if run.MSHRHist != nil {
		t.Error("MSHR histogram exported for a non-sampling spec")
	}
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cpiStack":{"retiring":`) {
		t.Errorf("CPI stack not serialized in bucket order: %s", data)
	}
}

// TestJournalSection pins the -journal pointer section: present with the
// journal's identity when a file-backed journal is attached, absent for
// bus-only journals and journal-less runners.
func TestJournalSection(t *testing.T) {
	r := harness.NewRunner(exportScale)
	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	r.Journal = j
	spec := harness.RunSpec{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge()}
	if _, err := r.Sweep(context.Background(), []harness.RunSpec{spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	doc := Build("cfdbench", r, nil)
	if doc.Journal == nil {
		t.Fatal("document has no journal section")
	}
	if doc.Journal.Path != path || doc.Journal.Schema != journal.Schema || doc.Journal.Version != journal.Version {
		t.Fatalf("journal section = %+v", doc.Journal)
	}
	if doc.Journal.Events != j.Events() || doc.Journal.Events == 0 {
		t.Fatalf("journal section events = %d, journal wrote %d", doc.Journal.Events, j.Events())
	}

	// Round trip: the section survives encode/decode.
	got, err := Decode(bytes.NewReader(encode(t, doc)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Journal, doc.Journal) {
		t.Fatalf("journal section round trip: %+v vs %+v", got.Journal, doc.Journal)
	}

	// Bus-only journal: no file, no section.
	r2 := harness.NewRunner(exportScale)
	j2 := journal.New("test")
	r2.Journal = j2
	if doc2 := Build("cfdbench", r2, nil); doc2.Journal != nil {
		t.Fatalf("bus-only journal produced a section: %+v", doc2.Journal)
	}
	j2.Close()

	// No journal at all.
	if doc3 := Build("cfdbench", harness.NewRunner(exportScale), nil); doc3.Journal != nil {
		t.Fatal("journal-less runner produced a journal section")
	}
}
