package export

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/harness"
	"cfd/internal/workload"
)

func buildSampledDoc(t *testing.T, jobs int) *Document {
	t.Helper()
	r := harness.NewRunner(exportScale)
	r.Jobs = jobs
	specs := []harness.RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge(), SampleEvery: 2048},
		{Workload: "bzip2like", Variant: workload.CFD, Config: config.SandyBridge(), SampleEvery: 2048},
	}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	return Build("cfdsim", r, nil)
}

// TestGoldenTelemetryExport pins the serialized shape of the version-2
// sections — timeseries sample fields and occupancy histograms — byte for
// byte against a committed golden.
func TestGoldenTelemetryExport(t *testing.T) {
	got := encode(t, buildSampledDoc(t, 1))
	path := filepath.Join("testdata", "telemetry.json")
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
		t.Errorf("telemetry export differs from %s (rerun with -update if the change is intended)", path)
	}
}

// TestTelemetryExportShape checks the version-2 schema invariants without
// relying on exact simulated numbers.
func TestTelemetryExportShape(t *testing.T) {
	doc := buildSampledDoc(t, 0)
	if doc.Version != 2 {
		t.Fatalf("document version %d, want 2", doc.Version)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(doc.Runs))
	}
	for _, run := range doc.Runs {
		if run.Timeseries == nil || len(run.Timeseries.Samples) == 0 {
			t.Fatalf("%s/%s: no timeseries section", run.Workload, run.Variant)
		}
		if run.Timeseries.Every != 2048 {
			t.Errorf("%s/%s: sampling interval %d, want 2048", run.Workload, run.Variant, run.Timeseries.Every)
		}
		last := run.Timeseries.Samples[len(run.Timeseries.Samples)-1]
		if last.Cycle != run.Counters.Cycles {
			t.Errorf("%s/%s: series ends at cycle %d, run took %d",
				run.Workload, run.Variant, last.Cycle, run.Counters.Cycles)
		}
		if run.Occupancy == nil {
			t.Fatalf("%s/%s: no occupancy section", run.Workload, run.Variant)
		}
		var sum uint64
		for _, c := range run.Occupancy.BQ.Counts {
			sum += c
		}
		if sum != run.Counters.Cycles {
			t.Errorf("%s/%s: BQ occupancy counts sum to %d cycles of %d",
				run.Workload, run.Variant, sum, run.Counters.Cycles)
		}
	}
	// Serialized field names are the documented schema.
	out := string(encode(t, doc))
	for _, want := range []string{
		`"timeseries"`, `"occupancy"`, `"every"`, `"samples"`,
		`"fetchStallFrac"`, `"bqOcc"`, `"counts"`, `"version": 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized document missing %s", want)
		}
	}
}

// TestTelemetryExportDeterminism: sampled sections must not break the
// byte-identical-across-jobs contract.
func TestTelemetryExportDeterminism(t *testing.T) {
	serial := encode(t, buildSampledDoc(t, 1))
	parallel := encode(t, buildSampledDoc(t, 8))
	if !bytes.Equal(serial, parallel) {
		t.Error("telemetry export differs between Jobs=1 and Jobs=8")
	}
}

// TestDecodeAcceptsVersion1: bumping to version 2 must not orphan old
// documents.
func TestDecodeAcceptsVersion1(t *testing.T) {
	doc, err := Decode(strings.NewReader(`{"schema":"cfd-results","version":1,"tool":"cfdbench","scale":1,"verify":false,"runs":[]}`))
	if err != nil {
		t.Fatalf("version-1 document rejected: %v", err)
	}
	if doc.Version != 1 {
		t.Errorf("decoded version %d", doc.Version)
	}
}
