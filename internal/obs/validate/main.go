// Command validate checks the observability artifacts CI produces. A file
// whose first line is a journal_open event is a cfd-journal: it gets
// structural validation (header, schema/version, sequence monotonicity,
// per-type required fields) plus, with -store, the resume invariant —
// every completion the journal records as stored must have its record
// present in the store directory, even when the producing process was
// SIGKILLed mid-sweep. With -replay it also writes the journal's canonical
// sorted replay, which is byte-identical across -jobs settings. Any other
// file is a Chrome/Perfetto trace-event file, checked for valid JSON in
// the object form, known event phases, and monotonically non-decreasing
// timestamps.
//
// Usage:
//
//	go run ./internal/obs/validate [-store dir] [-replay out] file...
//
// Exit status 0 when every file validates, 1 otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code lifted out so
// tests can drive the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "journals: store directory to check stored completions against")
	replay := fs.String("replay", "", "journals: write the canonical sorted replay to this path ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: validate [-store dir] [-replay out] file...")
		return 2
	}
	code := 0
	for _, path := range fs.Args() {
		if err := validateOne(stdout, path, *storeDir, *replay); err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", path, err)
			code = 1
		}
	}
	return code
}

// validateOne checks one file, reporting on w.
func validateOne(w io.Writer, path, storeDir, replay string) error {
	isJournal, err := journalHeader(path)
	if err != nil {
		return err
	}
	if !isJournal {
		n, err := obs.ValidateTraceFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: OK (%d events)\n", path, n)
		return nil
	}
	events, err := journal.ReadFile(path)
	if err != nil {
		return err
	}
	sum, err := journal.Validate(events)
	if err != nil {
		return err
	}
	state := "complete"
	if sum.Truncated {
		state = "truncated (no trailer — crashed writer)"
	}
	fmt.Fprintf(w, "%s: %s\n", path, state)
	fmt.Fprintf(w, "  events=%d sweeps=%d submitted=%d done=%d ok=%d faults=%d\n",
		sum.Events, sum.Sweeps, sum.Submitted, sum.Done, sum.OK, sum.Faults)
	fmt.Fprintf(w, "  storeHits=%d cacheHits=%d quarantines=%d hostSamples=%d\n",
		sum.StoreHits, sum.CacheHits, sum.Quarantines, sum.HostSamples)

	if storeDir != "" {
		if err := checkStore(w, events, storeDir); err != nil {
			return err
		}
	}
	if replay != "" {
		if err := writeReplay(w, events, replay); err != nil {
			return err
		}
	}
	return nil
}

// journalHeader reports whether the file's first line is a journal_open
// event — the header every cfd-journal starts with.
func journalHeader(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil && err != io.EOF {
		return false, err
	}
	var ev journal.Event
	return json.Unmarshal(line, &ev) == nil && ev.Type == journal.JournalOpen, nil
}

// checkStore verifies the resume invariant: the set of store keys the
// journal says were persisted is a subset of the keys the store serves.
// The harness journals a spec_done as stored only after its record's
// append and fsync return, so this holds even for a journal truncated by
// SIGKILL.
func checkStore(w io.Writer, events []journal.Event, dir string) error {
	keys := journal.CompletedKeys(events, true)
	have, err := storeKeys(dir)
	if err != nil {
		return err
	}
	missing := 0
	for _, k := range keys {
		if !have[k] {
			fmt.Fprintf(w, "  stored completion missing from store: %s\n", k)
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d journaled completions missing from store %s", missing, dir)
	}
	fmt.Fprintf(w, "  store check: %d stored completions all present in %s (%d keys)\n",
		len(keys), dir, len(have))
	return nil
}

// storeKeys returns the keys the store at dir serves: those of every
// intact record in its logs, read through the store package without
// opening a handle, so validating creates and quarantines nothing. The
// store's own Get path does the full verification.
func storeKeys(dir string) (map[string]bool, error) {
	list, err := store.Keys(dir)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(list))
	for _, k := range list {
		keys[k] = true
	}
	return keys, nil
}

// writeReplay writes the canonical sorted replay to out ("-" = w).
func writeReplay(w io.Writer, events []journal.Event, out string) error {
	sorted := journal.SortedReplay(events)
	if out == "-" {
		return journal.Write(w, sorted)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := journal.Write(f, sorted); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
