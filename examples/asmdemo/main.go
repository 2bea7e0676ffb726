// Assembler demo: a CFD program written as text source (soplex.cfdasm, embedded
// below), assembled with the asm package and executed on both engines —
// plus a pipeline diagram of its first instructions.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"cfd"
	"cfd/internal/asm"
	"cfd/internal/pipeline"
)

//go:embed soplex.cfdasm
var source string

func main() {
	p, err := asm.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d instructions\n\n", p.Len())

	// Golden run on the emulator.
	em, err := cfd.Emulate(p, cfd.NewMemory(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emulator: retired %d, count(r5) = %d\n", em.Retired, em.Regs[5])

	// Cycle-level run with tracing.
	core, err := pipeline.New(cfd.Baseline(), p, cfd.NewMemory(), pipeline.WithTraceWindow(0, 16))
	if err != nil {
		log.Fatal(err)
	}
	if err := core.Run(0); err != nil {
		log.Fatal(err)
	}
	st := core.Stats
	fmt.Printf("pipeline: %d cycles, IPC %.2f, MPKI %.2f, BQ pops %d (all fetch-resolved: %v)\n\n",
		st.Cycles, st.IPC(), st.MPKI(), st.BQPops, st.BQResolvedAtFetch == st.BQPops)
	fmt.Println(core.Pipeview())
}
