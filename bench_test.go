package busaware

// The benchmark harness: one testing.B benchmark per table/figure of
// the paper's evaluation (plus the ablations DESIGN.md calls out).
// Each benchmark regenerates its artifact per iteration and reports
// the headline number as a custom metric so `go test -bench=.` prints
// the same rows the paper reports. EXPERIMENTS.md records one full
// paper-vs-measured comparison.

import (
	"testing"

	"busaware/internal/experiments"
)

// BenchmarkCalibrationSTREAM regenerates the Section 3 calibration:
// sustained bus throughput under four STREAM threads (paper:
// 29.5 trans/usec, 1797 MB/s).
func BenchmarkCalibrationSTREAM(b *testing.B) {
	var cal CalibrationResult
	for i := 0; i < b.N; i++ {
		var err error
		cal, err = Calibrate(ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cal.SustainedRate), "trans/us")
	b.ReportMetric(cal.SustainedMBps, "MB/s")
}

// BenchmarkCacheMicrobench regenerates the Section 3 microbenchmark
// characterization: BBMA ~0% L2 hit rate, nBBMA ~100%.
func BenchmarkCacheMicrobench(b *testing.B) {
	var rows []HitRateResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = MicrobenchmarkHitRates()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "BBMA(column-wise, 2x L2)":
			b.ReportMetric(r.HitRate*100, "BBMA-hit-%")
		case "nBBMA(row-wise, L2/2)":
			b.ReportMetric(r.HitRate*100, "nBBMA-hit-%")
		}
	}
}

// BenchmarkFigure1A regenerates Figure 1A: cumulative bus transaction
// rates of the eleven applications across the four configurations.
// The reported metric is the mean cumulative rate of the app+2BBMA
// configuration (paper: 28.34 trans/usec).
func BenchmarkFigure1A(b *testing.B) {
	var rows []Fig1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure1(ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var withBBMA float64
	for _, r := range rows {
		withBBMA += float64(r.WithBBMARate)
	}
	b.ReportMetric(withBBMA/float64(len(rows)), "BBMA-mix-trans/us")
	b.ReportMetric(float64(rows[len(rows)-1].SoloRate), "CG-solo-trans/us")
}

// BenchmarkFigure1B regenerates Figure 1B: application slowdowns in
// the three multiprogrammed configurations. Reported metrics: CG's
// slowdown against two BBMA copies (paper: ~2.5-2.8x) and the mean
// slowdown against nBBMA (paper: ~1.0).
func BenchmarkFigure1B(b *testing.B) {
	var rows []Fig1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure1(ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var nbbma float64
	for _, r := range rows {
		nbbma += r.WithNBBMASlowdown
	}
	b.ReportMetric(rows[len(rows)-1].WithBBMASlowdown, "CG-BBMA-slowdown-x")
	b.ReportMetric(nbbma/float64(len(rows)), "mean-nBBMA-slowdown-x")
}

// benchFigure2 runs one Figure 2 panel and reports the panel means.
func benchFigure2(b *testing.B, set experiments.WorkloadSet) {
	b.Helper()
	var rows []Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure2(set, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	s := SummarizeFigure2(set, rows)
	b.ReportMetric(s.LQMean, "LQ-mean-impr-%")
	b.ReportMetric(s.QWMean, "QW-mean-impr-%")
	b.ReportMetric(s.LQMax, "LQ-max-impr-%")
	b.ReportMetric(s.QWMax, "QW-max-impr-%")
}

// BenchmarkFigure2A regenerates Figure 2A (2 apps + 4 BBMA). Paper:
// LQ 4-68% (avg 41%), QW 2-53% (avg 31%).
func BenchmarkFigure2A(b *testing.B) { benchFigure2(b, experiments.SetBBMA) }

// BenchmarkFigure2B regenerates Figure 2B (2 apps + 4 nBBMA). Paper:
// LQ up to 60% (avg 13%, Raytrace -19%), QW up to 64% (avg 21%).
func BenchmarkFigure2B(b *testing.B) { benchFigure2(b, experiments.SetNBBMA) }

// BenchmarkFigure2C regenerates Figure 2C (2 apps + 2 BBMA + 2 nBBMA).
// Paper: LQ avg 26% (max 50%), QW avg 25% (max 47%).
func BenchmarkFigure2C(b *testing.B) { benchFigure2(b, experiments.SetMixed) }

// BenchmarkAblationWindow regenerates the window-length tradeoff
// behind the paper's W = 5 choice.
func BenchmarkAblationWindow(b *testing.B) {
	var rows []WindowAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = AblateWindow(ExperimentOptions{}, []int{1, 5, 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Window == 5 {
			b.ReportMetric(r.TrackingDistance*100, "W5-track-dist-%")
		}
	}
}

// BenchmarkAblationQuantum regenerates the quantum-length discussion
// (100 ms vs 200 ms context-switch blowup).
func BenchmarkAblationQuantum(b *testing.B) {
	var rows []QuantumAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = AblateQuantum(ExperimentOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Quantum == 100*Millisecond {
			b.ReportMetric(r.ContextSwitchesPerSec, "cs/s@100ms")
		}
		if r.Quantum == 200*Millisecond {
			b.ReportMetric(r.ContextSwitchesPerSec, "cs/s@200ms")
		}
	}
}

// BenchmarkManagerOverhead regenerates the Section 4 overhead
// measurement (paper: at most 4.5%).
func BenchmarkManagerOverhead(b *testing.B) {
	var res OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = MeasureManagerOverhead(ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OverheadPercent, "overhead-%")
}

// BenchmarkSchedulerZoo is the extension ablation: the full scheduler
// lineup on the mixed workload.
func BenchmarkSchedulerZoo(b *testing.B) {
	var rows []ZooRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = CompareSchedulers(ExperimentOptions{}, "BT")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Scheduler {
		case "QuantaWindow":
			b.ReportMetric(r.ImprovementVsLinux, "QW-impr-%")
		case "Oracle":
			b.ReportMetric(r.ImprovementVsLinux, "oracle-impr-%")
		case "GangRR":
			b.ReportMetric(r.ImprovementVsLinux, "gang-impr-%")
		}
	}
}

// BenchmarkSamplingAblation contrasts estimator inputs on the
// saturated set (requirements correction vs raw consumption vs naive
// selection).
func BenchmarkSamplingAblation(b *testing.B) {
	var rows []SamplingAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = AblateSampling(ExperimentOptions{}, []string{"CG"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RequirementsImprovement, "req-impr-%")
	b.ReportMetric(rows[0].ConsumptionImprovement, "cons-impr-%")
	b.ReportMetric(rows[0].GuardedImprovement, "guarded-impr-%")
}

// BenchmarkRobustness sweeps 20 random workloads (extension: the
// generalization check beyond the paper's hand-picked mixes).
func BenchmarkRobustness(b *testing.B) {
	var res RobustnessResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = MeasureRobustness(ExperimentOptions{LinuxSeeds: []int64{1}}, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.QW.Mean, "QW-mean-impr-%")
	b.ReportMetric(float64(res.QWWins), "QW-wins/20")
}

// BenchmarkServerWorkloads evaluates the server-class profiles — the
// paper's "web and database servers" future work.
func BenchmarkServerWorkloads(b *testing.B) {
	var rows []ServerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunServerWorkloads(ExperimentOptions{LinuxSeeds: []int64{1}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.App {
		case "WebServer":
			b.ReportMetric(r.QWImprovement, "web-QW-impr-%")
		case "Database":
			b.ReportMetric(r.QWImprovement, "db-QW-impr-%")
		}
	}
}

// BenchmarkSMTStudy measures hyperthreading off vs on — the paper's
// "multithreading processors" future work.
func BenchmarkSMTStudy(b *testing.B) {
	var rows []SMTRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunSMTStudy(ExperimentOptions{LinuxSeeds: []int64{1}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "QuantaWindow" {
			b.ReportMetric(r.SpeedupPercent, "QW-SMT-speedup-%")
		}
	}
}

// BenchmarkSimQuantum measures the simulator's raw quantum throughput
// (not a paper figure; engineering metric).
func BenchmarkSimQuantum(b *testing.B) {
	cg, _ := AppByName("CG")
	bbma, _ := AppByName("BBMA")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps := append(Instances(cg, 2), Instances(bbma, 4)...)
		if _, err := RunPolicy(PolicyQuantaWindow, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// simRunFullApps builds the whole-run benchmark workload: two finite
// paper applications (four threads total) that fit the 4-CPU machine
// and stay far under bus capacity, so the schedule reaches a steady
// state. Barnes (15 s solo) and BT (16 s solo) give a moderate/high
// bandwidth mix and ~80 quanta of run, long enough that the warmup and
// completion quanta are a small fraction of the whole.
func simRunFullApps(b *testing.B) []*App {
	b.Helper()
	barnes, ok := AppByName("Barnes")
	if !ok {
		b.Fatal("Barnes missing from registry")
	}
	bt, ok := AppByName("BT")
	if !ok {
		b.Fatal("BT missing from registry")
	}
	return []*App{NewInstance(barnes, "Barnes#1"), NewInstance(bt, "BT#1")}
}

// BenchmarkSimRunFull measures the cost of one whole run (not a paper
// figure; engineering metric). The sub-benchmark keeps the name CI
// gates and BENCH_baseline.json record.
func BenchmarkSimRunFull(b *testing.B) {
	b.Run("quantum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := PaperMachine()
			s, err := NewScheduler(PolicyQuantaWindow, m, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Run(m, s, simRunFullApps(b)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
