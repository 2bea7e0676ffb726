package cfd

import (
	"bytes"
	"testing"
)

// benchScale keeps every experiment bench at laptop scale; use
// cmd/cfdbench -scale 1.0 for full-size runs.
const benchScale = 0.04

// benchExperiment regenerates one paper table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := RunExperiment(id, &buf, benchScale); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			b.Fatalf("%s: empty output", id)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkFig1_PerfectPrediction(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2a_MispredictLevels(b *testing.B)   { benchExperiment(b, "fig2a") }
func BenchmarkFig2b_WindowScalingBase(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig6_Classification(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkTable1_MPKI(b *testing.B)              { benchExperiment(b, "table1") }
func BenchmarkTable2_PipelineDepths(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig17_BaselineConfig(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkTable3_CFDOverheads(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4_TQOverheads(b *testing.B)       { benchExperiment(b, "table4") }
func BenchmarkTable5_CodeDetailsBQ(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6_CodeDetailsTQ(b *testing.B)     { benchExperiment(b, "table6") }
func BenchmarkFig18_CFDSpeedup(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig19_EffectiveIPC(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFig20_FetchAccounting(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkFig21a_DepthSensitivity(b *testing.B)  { benchExperiment(b, "fig21a") }
func BenchmarkFig21b_WindowScalingCFD(b *testing.B)  { benchExperiment(b, "fig21b") }
func BenchmarkFig21c_SpecVsStall(b *testing.B)       { benchExperiment(b, "fig21c") }
func BenchmarkFig22_AstarCaseStudy(b *testing.B)     { benchExperiment(b, "fig22") }
func BenchmarkFig23_AstarWindowScaling(b *testing.B) { benchExperiment(b, "fig23") }
func BenchmarkFig24_DFDvsCFD(b *testing.B)           { benchExperiment(b, "fig24") }
func BenchmarkFig25a_MSHRHistogram(b *testing.B)     { benchExperiment(b, "fig25a") }
func BenchmarkFig25b_DFDLevels(b *testing.B)         { benchExperiment(b, "fig25b") }
func BenchmarkFig26_CFDPlusDFD(b *testing.B)         { benchExperiment(b, "fig26") }
func BenchmarkFig27_TQ(b *testing.B)                 { benchExperiment(b, "fig27") }
func BenchmarkFig28_BQTQ(b *testing.B)               { benchExperiment(b, "fig28") }

// Ablations beyond the paper's figures: the §VI baseline-selection studies
// and the §II-B if-conversion crossover.

func BenchmarkAblationCheckpoints(b *testing.B)     { benchExperiment(b, "ablation-ckpt") }
func BenchmarkAblationIfConvCrossover(b *testing.B) { benchExperiment(b, "ablation-ifconv") }
func BenchmarkAblationPredictors(b *testing.B)      { benchExperiment(b, "ablation-pred") }

// Parallel-harness benchmarks: one experiment under explicit -jobs
// settings. On a multi-core host BenchmarkFig18Parallel should approach
// a GOMAXPROCS-fold speedup over BenchmarkFig18Serial; the outputs are
// byte-identical (TestSweepDeterminism pins that).

func benchExperimentJobs(b *testing.B, id string, jobs int, verify bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := RunExperimentWith(id, &buf, benchScale, jobs, verify); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			b.Fatalf("%s: empty output", id)
		}
	}
}

func BenchmarkFig18Serial(b *testing.B)   { benchExperimentJobs(b, "fig18", 1, false) }
func BenchmarkFig18Parallel(b *testing.B) { benchExperimentJobs(b, "fig18", 0, false) }
func BenchmarkFig18Verified(b *testing.B) { benchExperimentJobs(b, "fig18", 0, true) }

// Infrastructure microbenchmarks: simulator and emulator throughput.

func BenchmarkPipelineThroughput(b *testing.B) {
	w, _ := WorkloadByName("soplexlike")
	p, m, err := w.Build(Base, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		core, err := NewCore(Baseline(), p, m.Clone())
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Run(0); err != nil {
			b.Fatal(err)
		}
		cycles = core.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

func BenchmarkEmulatorThroughput(b *testing.B) {
	w, _ := WorkloadByName("soplexlike")
	p, m, err := w.Build(Base, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		mc, err := Emulate(p, m.Clone(), 0)
		if err != nil {
			b.Fatal(err)
		}
		retired = mc.Retired
	}
	b.ReportMetric(float64(retired)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkAblationHWPrefetcher(b *testing.B) { benchExperiment(b, "ablation-hwpf") }
