package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"slices"
	"testing"

	"cfd/internal/prog"
	"cfd/internal/xform"
)

const programsFile = "testdata/programs.json"

// programGrid is every queue-capacity combination the program golden
// compiles for. It reaches each chunk-size rule of the pass (BQ, half of
// min(BQ, VQ), half the BQ, half of min(BQ, TQ), BQ/MaxTrip) and the
// refusals of the small queues.
func programGrid() []xform.Params {
	var grid []xform.Params
	for _, bq := range []int{4, 8, 16, 32, 64, 128, 256, 512} {
		for _, vq := range []int{8, 16, 64, 128} {
			for _, tq := range []int{8, 16, 64, 256} {
				grid = append(grid, xform.Params{BQSize: bq, VQSize: vq, TQSize: tq})
			}
		}
	}
	return grid
}

// kernelSpecs returns every workload built from a kernel form: the listed
// ones and the unlisted crossover kernels.
func kernelSpecs(t *testing.T) []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Kernel != nil {
			out = append(out, s)
		}
	}
	for _, cd := range CrossoverCDs {
		s, ok := ByName(CrossoverName(cd))
		if !ok {
			t.Fatalf("%s is not registered", CrossoverName(cd))
		}
		out = append(out, s)
	}
	return out
}

// hashProgram writes one generated program to h: its instructions, its
// labels sorted by name and its notes sorted by pc. Disassemble is not
// used: it prints labels that share a pc in map order.
func hashProgram(h hash.Hash, p *prog.Program) {
	for _, in := range p.Insts {
		fmt.Fprintf(h, "%s %d %d %d %d\n", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "label %s %d\n", name, p.Labels[name])
	}
	pcs := make([]uint64, 0, len(p.Notes))
	for pc := range p.Notes {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	for _, pc := range pcs {
		n := p.Notes[pc]
		fmt.Fprintf(h, "note %d %s %s\n", pc, n.Name, n.Class)
	}
}

// TestGoldenPrograms pins every program the pass pipeline generates: for
// each kernel workload and variant, one SHA-256 over the program (or the
// refusal text) compiled for each queue capacity of programGrid. A change
// to code generation must regenerate it deliberately with
//
//	go test ./internal/workload/ -run TestGoldenPrograms -update
func TestGoldenPrograms(t *testing.T) {
	grid := programGrid()
	got := map[string]string{}
	for _, s := range kernelSpecs(t) {
		f, _, err := s.Kernel(s.TestN)
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		for _, v := range s.Variants {
			h := sha256.New()
			for _, p := range grid {
				fmt.Fprintf(h, "params %d %d %d\n", p.BQSize, p.VQSize, p.TQSize)
				prg, err := f.Apply(s.Transform(v), p)
				if err != nil {
					fmt.Fprintf(h, "refused %s\n", err)
					continue
				}
				hashProgram(h, prg)
			}
			got[digestKey(s, v)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	if *updateDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(programsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d program hashes to %s", len(got), programsFile)
		return
	}
	raw, err := os.ReadFile(programsFile)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update to create)", programsFile, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", programsFile, err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: cell disappeared", k)
		} else if g != w {
			t.Errorf("%s: generated programs hash %s, golden %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new cell not in golden file (run -update)", k)
		}
	}
}
