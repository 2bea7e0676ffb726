// Command cfdclassify runs the control-flow classification study (paper
// §II): it profiles every workload under the ISL-TAGE predictor and prints
// the MPKI table and the class breakdown.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cfd/internal/classify"
	"cfd/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so tests can drive
// the command end to end. It returns 0 on success, 1 on a failed study and
// 2 on bad usage.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfdclassify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale = fs.Float64("scale", 0.25, "workload size scale factor")
		top   = fs.Int("top", 3, "hard branches to show per workload")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: cfdclassify [flags]")
		return 2
	}

	st, err := classify.Run(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "cfdclassify: %v\n", err)
		return 1
	}

	t := stats.NewTable("Per-workload branch profile (ISL-TAGE)",
		"workload", "suite", "retired", "MPKI", "miss rate", "targeted")
	for _, r := range st.Reports {
		t.Addf(r.Workload, r.Suite, r.Retired, r.MPKI(), stats.Share(r.MissRate()), fmt.Sprint(r.Targeted()))
	}
	fmt.Fprintln(stdout, t)

	for _, r := range st.Reports {
		if !r.Targeted() {
			continue
		}
		fmt.Fprintf(stdout, "-- %s: top mispredicting branches --\n", r.Workload)
		for i, b := range r.Branches {
			if i >= *top {
				break
			}
			fmt.Fprintf(stdout, "   pc %-6d %-40s class=%-22s execs=%-8d missrate=%s\n",
				b.PC, b.Name, b.Class, b.Execs, stats.Share(b.MissRate()))
		}
	}
	fmt.Fprintln(stdout)

	fmt.Fprintf(stdout, "targeted share of cumulative MPKI: %s (paper: ~78%%)\n", stats.Share(st.TargetedShare()))
	shares := st.ClassShares()
	type kv struct {
		name  string
		share float64
	}
	var rows []kv
	for c, s := range shares {
		rows = append(rows, kv{c.String(), s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	fmt.Fprintln(stdout, "targeted MPKI by class (Fig 6c):")
	for _, r := range rows {
		fmt.Fprintf(stdout, "   %-24s %s\n", r.name, stats.Share(r.share))
	}
	fmt.Fprintf(stdout, "separable (CFD-applicable): %s (paper: 41.4%%)\n", stats.Share(st.SeparableShare()))
	return 0
}
