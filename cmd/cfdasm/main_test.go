package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cfdasm runs the command with argv and returns its exit code and streams.
func cfdasm(t *testing.T, argv ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// source writes an assembly file into a temp dir and returns its path.
func source(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sumLoop adds 1..10 into r5.
const sumLoop = `
        addi r2, r0, 10
        addi r5, r0, 0
loop:   add  r5, r5, r2
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
`

func TestEmulateAndCycle(t *testing.T) {
	path := source(t, sumLoop)
	code, out, errs := cfdasm(t, path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	if !strings.Contains(out, "retired 33 instructions") || !strings.Contains(out, "r5  = 55 (0x37)") {
		t.Errorf("emulator output:\n%s", out)
	}

	code, out, errs = cfdasm(t, "-cycle", "-pipeview", "5", path)
	if code != 0 {
		t.Fatalf("-cycle: exit %d\n%s", code, errs)
	}
	if !strings.Contains(out, "retired 33  IPC") {
		t.Errorf("-cycle output:\n%s", out)
	}

	code, out, _ = cfdasm(t, "-dump", path)
	if code != 0 || !strings.Contains(out, "loop:\n") {
		t.Errorf("-dump: exit %d, output:\n%s", code, out)
	}
}

func TestBadUsageExits2(t *testing.T) {
	path := source(t, sumLoop)
	for _, argv := range [][]string{
		{"-no-such-flag", path},
		{"-limit", "many", path},
		{},
		{path, path},
	} {
		if code, _, errs := cfdasm(t, argv...); code != 2 || errs == "" {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 with a message", argv, code, errs)
		}
	}
}

func TestErrorsExit1(t *testing.T) {
	for name, argv := range map[string][]string{
		"missing file":   {filepath.Join(t.TempDir(), "absent.s")},
		"syntax error":   {source(t, "        frobnicate r1, r2\n")},
		"limit exceeded": {"-limit", "5", source(t, sumLoop)},
	} {
		code, _, errs := cfdasm(t, argv...)
		if code != 1 || !strings.HasPrefix(errs, "cfdasm: ") {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 with a cfdasm: message", name, code, errs)
		}
	}
}
