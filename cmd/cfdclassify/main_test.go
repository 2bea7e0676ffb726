package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// cfdclassify runs the command with argv and returns its exit code and
// streams.
func cfdclassify(t *testing.T, argv ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestStudyPrintsProfileAndShares(t *testing.T) {
	code, out, errs := cfdclassify(t, "-scale", "0.002", "-top", "1")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	for _, want := range []string{
		"Per-workload branch profile (ISL-TAGE)",
		"soplexlike",
		"top mispredicting branches",
		"targeted share of cumulative MPKI:",
		"targeted MPKI by class (Fig 6c):",
		"separable (CFD-applicable):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if errs != "" {
		t.Errorf("stderr not empty: %s", errs)
	}
}

func TestBadUsageExits2(t *testing.T) {
	for _, argv := range [][]string{
		{"-no-such-flag"},
		{"-scale", "big"},
		{"stray-argument"},
	} {
		if code, out, errs := cfdclassify(t, argv...); code != 2 || errs == "" || out != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 with a message only", argv, code, out, errs)
		}
	}
}

// TestFailedStudyExits1 registers a workload whose builder fails: the
// study cannot profile it, so the command reports the error and exits 1.
func TestFailedStudyExits1(t *testing.T) {
	const name = "brokenlike-test"
	if err := workload.Register(&workload.Spec{
		Name:     name,
		Variants: []workload.Variant{workload.Base},
		DefaultN: 1024, TestN: 64,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			return nil, nil, errors.New("deliberately broken builder")
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer workload.Deregister(name)
	code, out, errs := cfdclassify(t, "-scale", "0.002")
	if code != 1 || !strings.HasPrefix(errs, "cfdclassify: ") || !strings.Contains(errs, "deliberately broken builder") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the builder's error", code, errs)
	}
	if out != "" {
		t.Errorf("a failed study printed:\n%s", out)
	}
}
