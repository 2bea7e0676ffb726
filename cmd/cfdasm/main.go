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
	"io"
	"os"

	"cfd/internal/asm"
	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so tests can drive
// the command end to end. It returns 0 on success, 1 on a failed assembly
// or run, and 2 on bad usage.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfdasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cycle    = fs.Bool("cycle", false, "run on the cycle-level core instead of the emulator")
		pipeview = fs.Int("pipeview", 0, "with -cycle: trace N instructions and print a pipeline diagram")
		dump     = fs.Bool("dump", false, "print the assembled program and exit")
		limit    = fs.Uint64("limit", 50_000_000, "retired-instruction limit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cfdasm [flags] file.s")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(stderr, err)
	}
	p, image, err := asm.AssembleWithData(string(src))
	if err != nil {
		return fatal(stderr, err)
	}
	if *dump {
		fmt.Fprint(stdout, p.Disassemble())
		return 0
	}

	if *cycle {
		var opts []pipeline.Option
		if *pipeview > 0 {
			opts = append(opts, pipeline.WithTraceWindow(0, *pipeview))
		}
		core, err := pipeline.New(config.SandyBridge(), p, image, opts...)
		if err != nil {
			return fatal(stderr, err)
		}
		if err := core.Run(*limit); err != nil {
			return fatal(stderr, err)
		}
		st := core.Stats
		fmt.Fprintf(stdout, "cycles %d  retired %d  IPC %.3f  MPKI %.2f  BQ pops %d  TQ pops %d\n",
			st.Cycles, st.Retired, st.IPC(), st.MPKI(), st.BQPops, st.TQPops)
		if *pipeview > 0 {
			fmt.Fprint(stdout, core.Pipeview())
		}
		return 0
	}

	mc := emu.New(p, image)
	if err := mc.Run(*limit); err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stdout, "retired %d instructions\n", mc.Retired)
	for r := 1; r < 32; r++ {
		if mc.Regs[r] != 0 {
			fmt.Fprintf(stdout, "  r%-2d = %d (%#x)\n", r, mc.Regs[r], mc.Regs[r])
		}
	}
	fmt.Fprintf(stdout, "  BQ len %d, VQ len %d, TQ len %d, TCR %d\n",
		mc.BQ.Len(), mc.VQ.Len(), mc.TQ.Len(), mc.TCR)
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "cfdasm:", err)
	return 1
}
