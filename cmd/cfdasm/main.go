// Command cfdasm assembles CFD-RISC source and runs it — on the functional
// emulator by default, or on the cycle-level core with -cycle. With
// -pipeview it prints a textual pipeline diagram of the first instructions.
//
// Usage:
//
//	cfdasm prog.s                 # assemble + emulate, print register state
//	cfdasm -cycle prog.s          # run on the OOO core, print stats
//	cfdasm -cycle -pipeview 40 prog.s
//	cfdasm -dump prog.s           # print the assembled program and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"cfd/internal/asm"
	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/pipeline"
)

func main() {
	var (
		cycle    = flag.Bool("cycle", false, "run on the cycle-level core instead of the emulator")
		pipeview = flag.Int("pipeview", 0, "with -cycle: trace N instructions and print a pipeline diagram")
		dump     = flag.Bool("dump", false, "print the assembled program and exit")
		limit    = flag.Uint64("limit", 50_000_000, "retired-instruction limit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cfdasm [flags] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, image, err := asm.AssembleWithData(string(src))
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Print(p.Disassemble())
		return
	}

	if *cycle {
		var opts []pipeline.Option
		if *pipeview > 0 {
			opts = append(opts, pipeline.WithTraceWindow(0, *pipeview))
		}
		core, err := pipeline.New(config.SandyBridge(), p, image, opts...)
		if err != nil {
			fatal(err)
		}
		if err := core.Run(*limit); err != nil {
			fatal(err)
		}
		st := core.Stats
		fmt.Printf("cycles %d  retired %d  IPC %.3f  MPKI %.2f  BQ pops %d  TQ pops %d\n",
			st.Cycles, st.Retired, st.IPC(), st.MPKI(), st.BQPops, st.TQPops)
		if *pipeview > 0 {
			fmt.Print(core.Pipeview())
		}
		return
	}

	mc := emu.New(p, image)
	if err := mc.Run(*limit); err != nil {
		fatal(err)
	}
	fmt.Printf("retired %d instructions\n", mc.Retired)
	for r := 1; r < 32; r++ {
		if mc.Regs[r] != 0 {
			fmt.Printf("  r%-2d = %d (%#x)\n", r, mc.Regs[r], mc.Regs[r])
		}
	}
	fmt.Printf("  BQ len %d, VQ len %d, TQ len %d, TCR %d\n",
		mc.BQ.Len(), mc.VQ.Len(), mc.TQ.Len(), mc.TCR)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfdasm:", err)
	os.Exit(1)
}
