package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cfd/internal/manifest"
)

// The testdata/specsets goldens were captured from the hand-written
// enumeration loops the embedded manifests replaced: each file is the
// sorted spec-key list one experiment's legacy Prefetch swept. These
// tests are the refactor's safety net — the manifests must reproduce
// those sets byte for byte, forever.

// nonManifestExps pins the experiments that legitimately carry no
// manifest: classification studies and static tables, which simulate
// nothing.
var nonManifestExps = map[string]bool{
	"fig6":   true,
	"table1": true,
	"table2": true,
	"fig17":  true,
	"table5": true,
	"table6": true,
}

// TestManifestCoverage: every experiment either embeds a manifest or is
// explicitly pinned as manifest-free — a new experiment cannot silently
// opt out of declarative enumeration.
func TestManifestCoverage(t *testing.T) {
	for _, e := range AllExperiments() {
		switch {
		case e.Manifest == nil && !nonManifestExps[e.ID]:
			t.Errorf("experiment %s has no manifest and is not in nonManifestExps", e.ID)
		case e.Manifest != nil && nonManifestExps[e.ID]:
			t.Errorf("experiment %s is pinned manifest-free but embeds a manifest", e.ID)
		}
	}
	for id := range nonManifestExps {
		if _, ok := ByID(id); !ok {
			t.Errorf("nonManifestExps pins unknown experiment %q", id)
		}
	}
}

// TestManifestSpecsMatchLegacyGoldens: each embedded manifest expands to
// exactly the spec-key set the legacy enumeration loops produced.
// Regenerate with UPDATE_SPECSETS=1 only for intentional changes to an
// experiment's sweep.
func TestManifestSpecsMatchLegacyGoldens(t *testing.T) {
	covered := map[string]bool{}
	for _, e := range AllExperiments() {
		if e.Manifest == nil {
			continue
		}
		covered[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			specs, err := e.Specs()
			if err != nil {
				t.Fatalf("Specs: %v", err)
			}
			var b strings.Builder
			for _, sp := range specs {
				b.WriteString(sp.Key())
				b.WriteByte('\n')
			}
			got := b.String()
			path := filepath.Join("testdata", "specsets", e.ID+".keys")
			if os.Getenv("UPDATE_SPECSETS") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (run with UPDATE_SPECSETS=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("manifest expansion diverges from legacy golden %s\ngot %d specs, want %d\n%s",
					path, len(specs), strings.Count(string(want), "\n"),
					diffLines(got, string(want)))
			}
		})
	}
	// Every golden must belong to a live manifest experiment, so a renamed
	// experiment cannot leave a stale golden silently passing.
	ents, err := os.ReadDir(filepath.Join("testdata", "specsets"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		id := strings.TrimSuffix(ent.Name(), ".keys")
		if !covered[id] {
			t.Errorf("stale golden testdata/specsets/%s: no manifest experiment %q", ent.Name(), id)
		}
	}
}

// TestManifestExpansionDeterministic: double expansion of every embedded
// manifest is byte-identical — the property that makes spec-key lists
// valid goldens and store identities.
func TestManifestExpansionDeterministic(t *testing.T) {
	for _, e := range AllExperiments() {
		if e.Manifest == nil {
			continue
		}
		a, err := e.Specs()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b, err := e.Specs()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: expansion lengths differ: %d vs %d", e.ID, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: spec %d differs between expansions", e.ID, i)
			}
		}
		if dig1, dig2 := e.Manifest.Digest(), e.Manifest.Digest(); dig1 != dig2 {
			t.Errorf("%s: manifest digest not stable: %s vs %s", e.ID, dig1, dig2)
		}
	}
}

// TestSpecMirrorsRunSpec: manifest.Spec and harness.RunSpec must stay
// field-identical (same names, same types, same order) — the struct
// conversion in SpecsFromManifest depends on it, and the key formats
// must agree.
func TestSpecMirrorsRunSpec(t *testing.T) {
	mt := reflect.TypeOf(manifest.Spec{})
	rt := reflect.TypeOf(RunSpec{})
	if mt.NumField() != rt.NumField() {
		t.Fatalf("field count: manifest.Spec has %d, RunSpec has %d", mt.NumField(), rt.NumField())
	}
	for i := 0; i < mt.NumField(); i++ {
		mf, rf := mt.Field(i), rt.Field(i)
		if mf.Name != rf.Name || mf.Type != rf.Type {
			t.Errorf("field %d: manifest.Spec has %s %s, RunSpec has %s %s",
				i, mf.Name, mf.Type, rf.Name, rf.Type)
		}
	}
}

// diffLines renders the first few line-level differences between two
// sorted key lists.
func diffLines(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n    got  %q\n    want %q\n", i+1, g, w)
		if n++; n >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}

// TestAssemblyLooksUpOnlyManifestSpecs: an experiment's assembly phase
// looks up only specs its manifest declares. Once the manifest's specs are
// prefetched, Run simulates nothing. A spec the manifest missed would run
// serially during assembly, outside every sweep and the journal.
func TestAssemblyLooksUpOnlyManifestSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var (
		mu         sync.Mutex
		undeclared []string
	)
	testOnSimulate = func(rs RunSpec) {
		mu.Lock()
		undeclared = append(undeclared, rs.key())
		mu.Unlock()
	}
	defer func() { testOnSimulate = nil }()
	checked := 0
	for _, e := range AllExperiments() {
		if e.Manifest == nil {
			continue
		}
		specs, err := e.Specs()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		r := NewRunner(0.02)
		r.KeepGoing = true
		r.Prefetch(specs...) //nolint:errcheck // failed specs are memoized as faults
		mu.Lock()
		undeclared = nil
		mu.Unlock()
		if err := e.Run(r, io.Discard); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		mu.Lock()
		if len(undeclared) > 0 {
			t.Errorf("%s: assembly simulated %d specs its manifest does not declare, first %s",
				e.ID, len(undeclared), undeclared[0])
		}
		mu.Unlock()
		checked++
	}
	if checked != len(AllExperiments())-len(nonManifestExps) {
		t.Errorf("checked %d experiments, want every one with a manifest", checked)
	}
}
