package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files:
//
//	go test ./internal/harness/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenScale is tiny on purpose: golden tests pin the exact rendered
// output (formatting, row order, derived ratios), not paper-scale
// numbers — the shape tests cover trends.
const goldenScale = 0.02

// TestGoldenExperiments renders a few experiments at a fixed scale and
// compares them byte for byte against committed golden files. Because
// the harness guarantees byte-identical output for any Jobs value, the
// goldens are valid regardless of the parallelism they were recorded or
// replayed under.
func TestGoldenExperiments(t *testing.T) {
	for _, id := range []string{"ablation-ifconv", "fig6", "fig17", "fig18", "table1", "table5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			r := NewRunner(goldenScale)
			var buf bytes.Buffer
			if err := e.Run(r, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from %s (rerun with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
					id, path, buf.Bytes(), want)
			}
		})
	}
}
