package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/store"
)

// writeJournal writes a one-sweep journal whose single completion is
// recorded as stored under storeKey.
func writeJournal(t *testing.T, path, storeKey string) {
	t.Helper()
	j, err := journal.Open(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(journal.Event{Type: journal.SweepStart, Sweep: 1, Total: 1})
	j.Emit(journal.Event{Type: journal.SpecSubmit, Sweep: 1, Key: "a"})
	j.Emit(journal.Event{Type: journal.SpecDone, Sweep: 1, Key: "a", StoreKey: storeKey,
		Status: "ok", Cycles: 10, Stored: true})
	j.Emit(journal.Event{Type: journal.SweepFinish, Sweep: 1, Total: 1, Completed: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func validate(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestValidateDispatch: a file opening with a journal_open line is
// validated as a journal, with -store checking the resume invariant and
// -replay writing the canonical replay; any other file is validated as a
// Chrome trace.
func TestValidateDispatch(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	tr := obs.NewTrace()
	tr.Span(1, 1, "run", "run", 0, 10, nil)
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "sweep.journal")
	writeJournal(t, jpath, "k1")
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.Put("k1", []byte(`{}`)), st.Close()); err != nil {
		t.Fatal(err)
	}
	replay := filepath.Join(dir, "replay.jsonl")

	code, out, errOut := validate("-store", storeDir, "-replay", replay, tracePath, jpath)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{tracePath + ": OK (1 events)", jpath + ": complete", "store check: 1 stored"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	events, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := journal.Write(&want, journal.SortedReplay(events)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(replay); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-replay wrote %q (err %v), want the sorted replay", got, err)
	}

	// A stored completion missing from the store fails the journal.
	if err := os.RemoveAll(filepath.Join(storeDir, "logs")); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := validate("-store", storeDir, jpath); code != 1 ||
		!strings.Contains(out, "missing from store: k1") || !strings.Contains(errOut, "FAIL "+jpath) {
		t.Errorf("missing entry: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	// A sorted replay keeps the journal_open header but not the sequence
	// numbers, so it is checked, and rejected, as a journal.
	if code, _, errOut := validate(replay); code != 1 || !strings.Contains(errOut, "seq") {
		t.Errorf("sorted replay: exit %d, stderr:\n%s", code, errOut)
	}
	if code, _, _ := validate(); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
}
