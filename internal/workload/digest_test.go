package workload

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cfd/internal/emu"
)

var updateDigests = flag.Bool("update", false, "rewrite the goldens under testdata/ (digests.json, programs.json) from the current builders")

const digestFile = "testdata/digests.json"

// digestLimit bounds emulator steps when computing digests; test-sized
// inputs finish well under it.
const digestLimit = 50_000_000

// finalDigest runs a workload variant at TestN on the functional emulator
// and returns the checksum of its final memory.
func finalDigest(t *testing.T, s *Spec, v Variant) uint64 {
	t.Helper()
	p, m, err := s.Build(v, s.TestN)
	if err != nil {
		t.Fatalf("%s/%s: build: %v", s.Name, v, err)
	}
	machine := emu.New(p, m)
	if err := machine.Run(digestLimit); err != nil {
		t.Fatalf("%s/%s: emulate: %v", s.Name, v, err)
	}
	return m.Checksum()
}

func digestKey(s *Spec, v Variant) string {
	return fmt.Sprintf("%s/%s", s.Name, v)
}

// TestGoldenMemoryDigests pins the final memory image of every
// workload×variant cell. The digests were captured from the hand-written
// variant bodies before the xform-pipeline migration; generated programs
// must retire exactly the same memory. Regenerate deliberately with
//
//	go test ./internal/workload/ -run TestGoldenMemoryDigests -update
func TestGoldenMemoryDigests(t *testing.T) {
	want := map[string]uint64{}
	if !*updateDigests {
		raw, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatalf("read %s: %v (run with -update to create)", digestFile, err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse %s: %v", digestFile, err)
		}
	}
	got := map[string]uint64{}
	for _, s := range All() {
		for _, v := range s.Variants {
			got[digestKey(s, v)] = finalDigest(t, s, v)
		}
	}
	if *updateDigests {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf []byte
		buf = append(buf, "{\n"...)
		for i, k := range keys {
			comma := ","
			if i == len(keys)-1 {
				comma = ""
			}
			buf = append(buf, fmt.Sprintf("  %q: %d%s\n", k, got[k], comma)...)
		}
		buf = append(buf, "}\n"...)
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: cell disappeared (was digest %d)", k, w)
			continue
		}
		if g != w {
			t.Errorf("%s: final memory digest %d, golden %d", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new cell not in golden file (run -update)", k)
		}
	}
}
