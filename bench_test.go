package dmlscale_test

// One benchmark per paper artifact: each regenerates the corresponding
// table or figure through the experiment harness and reports the headline
// quantity (MAPE, optimum) as a custom metric alongside the runtime.
// Benchmarks run at quick fidelity so `go test -bench=. -benchmem` stays
// interactive; `cmd/dmls-experiments -full` regenerates the full-size
// figures.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dmlscale"
	"dmlscale/internal/experiments"
	"dmlscale/internal/obs"
	"dmlscale/internal/scenario"
)

func benchOptions() experiments.Options {
	opts := experiments.QuickOptions()
	opts.Fig4Vertices = 160000
	return opts
}

// benchmarkExperiment runs one experiment per iteration and reports the
// named metrics.
func benchmarkExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, metricUnit(m))
		}
	}
}

// metricUnit renders a metric name as a benchmark unit label.
func metricUnit(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '%', '(', ')', '=':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFigure1 regenerates Fig. 1, the framework's example speedup
// curve with its peak at 14 nodes.
func BenchmarkFigure1(b *testing.B) {
	benchmarkExperiment(b, "fig1", "optimal workers", "peak speedup")
}

// BenchmarkTable1 regenerates Table I, the network configuration counts.
func BenchmarkTable1(b *testing.B) {
	benchmarkExperiment(b, "tab1", "fc parameters", "inception parameters")
}

// BenchmarkFigure2 regenerates Fig. 2, the fully-connected ANN speedup on
// the simulated Spark cluster (paper: optimum 9 workers, MAPE 13.7%).
func BenchmarkFigure2(b *testing.B) {
	benchmarkExperiment(b, "fig2", "MAPE %", "model optimal workers")
}

// BenchmarkFigure3 regenerates Fig. 3, the convolutional ANN weak-scaling
// speedup (paper: MAPE 1.2%).
func BenchmarkFigure3(b *testing.B) {
	benchmarkExperiment(b, "fig3", "MAPE %")
}

// BenchmarkFigure4 regenerates Fig. 4, the belief-propagation speedup on a
// DNS-like graph (paper: MAPE 25.4% on the full graph).
func BenchmarkFigure4(b *testing.B) {
	benchmarkExperiment(b, "fig4", "MAPE %")
}

// BenchmarkFigure4Small regenerates the §V-B text experiments on the
// downscaled graphs (paper: MAPE 26%, 19.6%, 23.5%).
func BenchmarkFigure4Small(b *testing.B) {
	benchmarkExperiment(b, "fig4s")
}

// BenchmarkAblationComm regenerates the communication-topology ablation.
func BenchmarkAblationComm(b *testing.B) {
	benchmarkExperiment(b, "abl-comm", "tree peak", "linear peak")
}

// BenchmarkAblationAsync regenerates the asynchronous-GD extension study.
func BenchmarkAblationAsync(b *testing.B) {
	benchmarkExperiment(b, "abl-async", "async optimal workers")
}

// BenchmarkAblationConvergence regenerates the convergence trade-off study.
func BenchmarkAblationConvergence(b *testing.B) {
	benchmarkExperiment(b, "abl-conv")
}

// BenchmarkAblationPartition regenerates the estimator-quality ablation.
func BenchmarkAblationPartition(b *testing.B) {
	benchmarkExperiment(b, "abl-part", "estimate/exact worst")
}

// benchSuite is a 10-scenario suite whose curves are individually expensive
// (Monte-Carlo graph inference on 60K-vertex DNS graphs), the case the
// concurrent evaluation layer exists for.
func benchSuite() dmlscale.Suite {
	scenarios := make([]dmlscale.Scenario, 0, 10)
	for i := 0; i < 10; i++ {
		scenarios = append(scenarios, dmlscale.Scenario{
			Name: fmt.Sprintf("bp sweep seed %d", i),
			Workload: scenario.WorkloadSpec{
				Family: "mrf",
				Graph:  &scenario.GraphSpec{Family: "dns", Vertices: 60000, Seed: int64(i)},
				States: 2,
				Trials: 3,
				Seed:   int64(i),
			},
			Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
			Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
			MaxWorkers: 16,
		})
	}
	return dmlscale.Suite{Name: "bench suite", Scenarios: scenarios}
}

// benchmarkSuiteEval evaluates the benchmark suite at the given
// parallelism, failing on any per-curve error.
func benchmarkSuiteEval(b *testing.B, parallelism int) {
	b.Helper()
	suite := benchSuite()
	for i := 0; i < b.N; i++ {
		results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkSuiteSerial is the baseline: the 10-curve suite evaluated one
// curve at a time.
func BenchmarkSuiteSerial(b *testing.B) {
	benchmarkSuiteEval(b, 1)
}

// BenchmarkSuiteParallel evaluates the same suite on the full worker pool;
// compare ns/op against BenchmarkSuiteSerial to see the speedup.
func BenchmarkSuiteParallel(b *testing.B) {
	benchmarkSuiteEval(b, runtime.GOMAXPROCS(0))
}

// benchmarkSingleCurve evaluates ONE expensive curve (the benchSuite cell:
// Monte-Carlo graph inference on a 60K-vertex DNS graph, 16 worker counts)
// at a fixed shared-budget setting. Suite-level concurrency cannot help a
// one-scenario run; the serial-vs-parallel gap here is pure intra-curve
// parallelism (worker-count sharding plus Monte-Carlo trial sharding), and
// the outputs are bit-identical either way.
func benchmarkSingleCurve(b *testing.B, parallelism int) {
	b.Helper()
	suite := dmlscale.Suite{Name: "single curve", Scenarios: benchSuite().Scenarios[:1]}
	defer dmlscale.SetParallelism(0)
	dmlscale.SetParallelism(parallelism)
	for i := 0; i < b.N; i++ {
		results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkSingleCurveSerial is the intra-curve baseline: budget 1, every
// worker count and trial evaluated on one goroutine.
func BenchmarkSingleCurveSerial(b *testing.B) {
	benchmarkSingleCurve(b, 1)
}

// BenchmarkSingleCurveParallel evaluates the same curve on the full budget;
// compare ns/op against BenchmarkSingleCurveSerial.
func BenchmarkSingleCurveParallel(b *testing.B) {
	benchmarkSingleCurve(b, runtime.GOMAXPROCS(0))
}

// benchKernelGrid is the cold-vs-warm benchmark workload: the 12-cell
// communication-axes grid over one DNS graph (kernelGridSuite), full-size
// normally, downscaled under -short so the CI smoke run stays quick.
func benchKernelGrid() dmlscale.Suite {
	vertices := 60000
	if testing.Short() {
		vertices = 8000
	}
	return kernelGridSuite(vertices)
}

// evaluateGrid runs one full suite evaluation, failing on any cell error.
func evaluateGrid(b *testing.B, suite dmlscale.Suite) {
	b.Helper()
	results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkSweepGridColdVsWarm measures what the shared kernel cache buys a
// sweep grid that varies only communication-side axes: Cold resets every
// process-wide cache before each pass (graph generation plus 16 Monte-Carlo
// estimations per pass), Warm reuses them (pure arithmetic and cache hits).
// Compare ns/op between the two sub-benchmarks; results are bit-identical
// either way (TestSweepGridKernelComputedExactlyOnce asserts it).
func BenchmarkSweepGridColdVsWarm(b *testing.B) {
	suite := benchKernelGrid()
	defer dmlscale.ResetCaches()
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dmlscale.ResetCaches()
			evaluateGrid(b, suite)
		}
	})
	b.Run("Warm", func(b *testing.B) {
		dmlscale.ResetCaches()
		evaluateGrid(b, suite) // prewarm: graph + every kernel estimate
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evaluateGrid(b, suite)
		}
	})
}

// BenchmarkSweepCurveCold64 evaluates ONE Monte-Carlo graph curve across a
// full 64-point worker axis from cold caches every iteration — the shape
// the batched kernel exists for: the curve's first sampled point batch-fills
// all 64 estimates in one kernel pass (one RNG draw per vertex per trial,
// common random numbers across worker counts), so a cold curve costs one
// O(trials·V) pass plus arithmetic instead of 64 independent kernel runs.
func BenchmarkSweepCurveCold64(b *testing.B) {
	vertices := 60000
	if testing.Short() {
		vertices = 8000
	}
	suite := dmlscale.Suite{Name: "cold 64-point curve", Scenarios: []dmlscale.Scenario{{
		Name: "bp dns cold64",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "dns", Vertices: vertices, Seed: 11},
			States: 2,
			Trials: 3,
			Seed:   11,
		},
		Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
		MaxWorkers: 64,
	}}}
	defer dmlscale.ResetCaches()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dmlscale.ResetCaches()
		evaluateGrid(b, suite)
	}
}

// BenchmarkPlanGridWarm ranks the same 12-cell grid with warm caches: the
// per-iteration fallback plans price every cell off cached kernel
// estimates, so planning cost is decoupled from Monte-Carlo cost.
func BenchmarkPlanGridWarm(b *testing.B) {
	suite := benchKernelGrid()
	defer dmlscale.ResetCaches()
	dmlscale.ResetCaches()
	if _, _, err := dmlscale.PlanSuite(context.Background(), suite, "", 0, dmlscale.PlanOptions{}); err != nil { // prewarm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, _, err := dmlscale.PlanSuite(context.Background(), suite, "", 0, dmlscale.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range report.Plans {
			if p.Err != nil {
				b.Fatal(p.Err)
			}
		}
	}
}

// planBenchSuite is a 24-cell planning grid: the Fig. 3 workload with a
// diminishing-returns convergence block swept over protocol × bandwidth ×
// precision, each cell optimized over 128 worker counts.
func planBenchSuite() dmlscale.Suite {
	base := scenario.Fig3()
	base.Name = "conv ANN"
	base.MaxWorkers = 128
	base.Convergence = &dmlscale.ConvergenceSpec{
		Rule:                "diminishing",
		BaseIterations:      50000,
		CriticalBatchGrowth: 32,
	}
	return dmlscale.Suite{
		Name:      "plan bench grid",
		Objective: "pareto",
		Sweep: &dmlscale.Sweep{
			Base:                 base,
			Protocols:            []string{"two-stage-tree", "ring", "pipelined-tree", "linear"},
			BandwidthsBitsPerSec: []float64{1e9, 10e9, 100e9},
			PrecisionsBits:       []float64{16, 32},
		},
	}
}

// benchmarkPlanGrid ranks the planning grid at the given parallelism,
// failing on any per-cell error.
func benchmarkPlanGrid(b *testing.B, parallelism int) {
	b.Helper()
	suite := planBenchSuite()
	defer dmlscale.SetParallelism(0)
	dmlscale.SetParallelism(parallelism)
	for i := 0; i < b.N; i++ {
		report, _, err := dmlscale.PlanSuite(context.Background(), suite, "", 0, dmlscale.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range report.Plans {
			if p.Err != nil {
				b.Fatal(p.Err)
			}
		}
	}
}

// BenchmarkPlanGridSerial is the planner baseline: every cell planned on
// one goroutine.
func BenchmarkPlanGridSerial(b *testing.B) {
	benchmarkPlanGrid(b, 1)
}

// BenchmarkPlanGridParallel plans the same grid on the full shared budget;
// compare ns/op against BenchmarkPlanGridSerial. Output is bit-identical
// either way.
func BenchmarkPlanGridParallel(b *testing.B) {
	benchmarkPlanGrid(b, runtime.GOMAXPROCS(0))
}

// adaptiveBenchSuite is a ~10k-cell, five-axis planning grid (protocol ×
// hardware × bandwidth × precision × worker bound) over a convergence-aware
// gradient-descent workload — the million-cell-sweep shape at benchmarkable
// size, with worker bounds up to 1024 so each cell's curve is wide enough
// that evaluation, not catalog resolution, is the dominant cost, as in the
// paper-scale sweeps the streaming pass exists for.
func adaptiveBenchSuite() dmlscale.Suite {
	base := scenario.Fig3()
	base.Name = "conv ANN"
	base.Convergence = &dmlscale.ConvergenceSpec{
		Rule:                "diminishing",
		BaseIterations:      60000,
		CriticalBatchGrowth: 24,
	}
	bandwidths := make([]float64, 18)
	bw := 2e8
	for i := range bandwidths {
		bandwidths[i] = bw
		bw *= 1.5
	}
	workers := make([]int, 8)
	for i := range workers {
		workers[i] = 128 * (i + 1)
	}
	return dmlscale.Suite{
		Name:      "adaptive bench grid",
		Objective: "pareto",
		Sweep: &dmlscale.Sweep{
			Base:                 base,
			Protocols:            []string{"tree", "two-stage-tree", "spark", "ring", "pipelined-tree"},
			Hardware:             []string{"xeon-e3-1240", "nvidia-k40", "dl980-core"},
			BandwidthsBitsPerSec: bandwidths,
			PrecisionsBits:       []float64{8, 16, 32, 64, 80},
			MaxWorkers:           workers,
		},
	}
}

// BenchmarkSweepStreamPruned plans the adaptive grid both ways: Exhaustive
// evaluates all 10 800 cells, Pruned runs the streaming pass that discards
// cells whose optimistic bound is already Pareto-dominated. The frontier is
// identical in both (TestAdaptiveAcceptanceBigGrid asserts it); compare
// ns/op and B/op between the sub-benchmarks for the adaptive win.
func BenchmarkSweepStreamPruned(b *testing.B) {
	suite := adaptiveBenchSuite()
	run := func(b *testing.B, opts dmlscale.PlanOptions) {
		b.ReportAllocs()
		var stats dmlscale.EvalStats
		for i := 0; i < b.N; i++ {
			report, st, err := dmlscale.PlanSuite(context.Background(), suite, "", 0, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range report.Plans {
				if p.Err != nil {
					b.Fatal(p.Err)
				}
			}
			stats = st
		}
		b.ReportMetric(float64(stats.Evaluated), "evaluated")
		b.ReportMetric(float64(stats.Pruned), "pruned")
	}
	b.Run("Exhaustive", func(b *testing.B) { run(b, dmlscale.PlanOptions{}) })
	b.Run("Pruned", func(b *testing.B) { run(b, dmlscale.PlanOptions{Prune: true}) })
}

// BenchmarkSweepGridTracedVsUntraced pins the cost of the observability
// spine on the 12-cell kernel grid with warm caches. Untraced runs with no
// recorder installed — every obs.Start is one atomic load returning a nil
// span, so ns/op here versus the pre-instrumentation baseline is the
// nil-recorder overhead the obs package promises to keep under a couple of
// percent. Traced records every span into an in-memory TraceBuffer, the
// -trace flag's cost. Results are bit-identical in both modes
// (TestTracedSweepOutputBitIdentical asserts it at the CLI).
func BenchmarkSweepGridTracedVsUntraced(b *testing.B) {
	suite := benchKernelGrid()
	defer dmlscale.ResetCaches()
	dmlscale.ResetCaches()
	evaluateGrid(b, suite) // prewarm: graph + every kernel estimate
	b.Run("Untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evaluateGrid(b, suite)
		}
	})
	b.Run("Traced", func(b *testing.B) {
		buf := obs.NewTraceBuffer(0)
		obs.SetRecorder(buf)
		defer obs.SetRecorder(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evaluateGrid(b, suite)
		}
		b.ReportMetric(float64(buf.Ended())/float64(b.N), "spans/op")
	})
}
