package experiments

import (
	"context"
	"fmt"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/core"
	"dmlscale/internal/gd"
	"dmlscale/internal/gpusim"
	"dmlscale/internal/metrics"
	"dmlscale/internal/scenario"
	"dmlscale/internal/textio"
	"dmlscale/internal/units"
)

func init() { register("fig3", Figure3) }

// Fig3Workload is the Chen et al. workload as the paper models it:
// Inception v3 with W = 25·10⁶ parameters, C = 3·5·10⁹ flops per training
// example, per-worker mini-batch S = 128, gradients in 32-bit floats.
func Fig3Workload() gd.Workload {
	return gd.Workload{
		Name:            "convolutional ANN, synchronous SGD",
		FlopsPerExample: 3 * 5e9,
		BatchSize:       128,
		ModelBits:       units.Bits(32 * 25e6),
	}
}

// Fig3Model is the paper's weak-scaling model:
// t(n) = ((C·S)/F + 2·(32·W/B)·log n)/n on derated K40 workers, built from
// the canonical Fig. 3 scenario through the registry.
func Fig3Model() (core.Model, error) {
	return scenario.Fig3().ModelCtx(context.Background())
}

// fig3Workers are the cluster sizes Chen et al. report around the paper's
// 50-worker baseline.
var fig3Workers = []int{25, 50, 100, 150, 200}

// Figure3 reproduces the paper's Fig. 3: speedup of processing time per
// training instance for convolutional ANN training, relative to 50 workers,
// analytic model vs the simulated GPU cluster.
func Figure3(opts Options) (Result, error) {
	opts = opts.withDefaults()
	model, err := Fig3Model()
	if err != nil {
		return Result{}, err
	}
	const base = 50
	modelCurve, err := model.SpeedupCurveRelative(base, fig3Workers)
	if err != nil {
		return Result{}, err
	}
	simCfg := gpusim.PaperFig3Config()
	simCfg.Seed = opts.Seed
	simCurve, err := gpusim.SpeedupCurve(simCfg, base, fig3Workers, opts.SimIterations)
	if err != nil {
		return Result{}, err
	}
	mape, err := metrics.MAPE(simCurve.Speedups(), modelCurve.Speedups())
	if err != nil {
		return Result{}, err
	}

	table := textio.NewTable("workers", "model t/instance (µs)", "model speedup vs 50", "sim speedup vs 50")
	for i, p := range modelCurve.Points {
		table.AddRow(p.N, float64(p.Time)*1e6, p.Speedup, simCurve.Points[i].Speedup)
	}
	plot, err := asciiplot.CurvePlot("Fig. 3 — per-instance speedup vs 50 workers, convolutional ANN",
		[]string{"model", "simulated experiment"},
		[][]int{fig3Workers, fig3Workers},
		[][]float64{modelCurve.Speedups(), simCurve.Speedups()}, 60, 14)
	if err != nil {
		return Result{}, err
	}

	// The weak-scaling contrast the paper discusses: under a linear
	// communication model the per-instance speedup flattens instead of
	// growing without bound. Same scenario, protocol swapped by name.
	linScenario := scenario.Fig3()
	linScenario.Protocol.Kind = "linear"
	linModel, err := linScenario.ModelCtx(context.Background())
	if err != nil {
		return Result{}, err
	}
	logGrows := model.SpeedupRelative(base, 400) > model.SpeedupRelative(base, 200)
	linFlat := linModel.SpeedupRelative(base, 400)/linModel.SpeedupRelative(base, 200) < 1.05

	return Result{
		ID:          "fig3",
		Title:       "Speedup of processing time per training instance, convolutional ANN (vs 50 workers)",
		Description: "Weak scaling of synchronous mini-batch SGD: W=25e6, C=3·5e9, S=128/worker, F=0.5·4.28 TFLOPS, B=1 Gbit/s; t(n) = ((C·S)/F + 2·(32·W/B)·log n)/n.",
		Table:       table,
		Plot:        plot,
		Metrics: map[string]float64{
			"MAPE %":           mape,
			"model s(100)":     modelCurve.Points[2].Speedup,
			"model s(200)":     modelCurve.Points[4].Speedup,
			"log comm grows":   boolMetric(logGrows),
			"linear comm flat": boolMetric(linFlat),
		},
		PaperComparison: []Comparison{
			{"MAPE vs experiment", "1.2%", fmt.Sprintf("%.1f%%", mape)},
			{"log-comm weak scaling", "infinite (always improves)", yesNo(logGrows, "still improving at 400 workers", "stalled")},
			{"linear-comm weak scaling", "finite (speedup flattens)", yesNo(linFlat, "flat past 200 workers", "still growing")},
		},
	}, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func yesNo(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}
