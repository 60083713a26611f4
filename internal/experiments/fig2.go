package experiments

import (
	"context"
	"fmt"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/core"
	"dmlscale/internal/gd"
	"dmlscale/internal/metrics"
	"dmlscale/internal/scenario"
	"dmlscale/internal/sparksim"
	"dmlscale/internal/textio"
	"dmlscale/internal/units"
)

func init() { register("fig2", Figure2) }

// Fig2Workload is the §V-A workload: the Table I fully-connected network
// trained by batch gradient descent in Spark — W = 12·10⁶ 64-bit
// parameters, 6·W flops per example, batch = the full 60,000-example MNIST
// training set.
func Fig2Workload() gd.Workload {
	return gd.Workload{
		Name:            "fully connected ANN on Spark",
		FlopsPerExample: 6 * 12e6,
		BatchSize:       60000,
		ModelBits:       units.Bits(64 * 12e6),
	}
}

// Fig2Model is the paper's analytic model for Fig. 2: computation
// 6·W·S/(F·n) on derated Xeon E3-1240 workers, communication
// (64·W/B)·log2(n) + 2·(64·W/B)·ceil(sqrt(n)) — torrent broadcast plus
// Spark's two-wave aggregation over 1 Gbit/s Ethernet. It is built from the
// canonical Fig. 2 scenario, the same registry path user scenario files take.
func Fig2Model() (core.Model, error) {
	return scenario.Fig2().ModelCtx(context.Background())
}

// Figure2 reproduces the paper's Fig. 2: speedup of one training iteration
// of the fully-connected ANN, analytic model vs the simulated Spark
// cluster, over 1..13 workers.
func Figure2(opts Options) (Result, error) {
	opts = opts.withDefaults()
	model, err := Fig2Model()
	if err != nil {
		return Result{}, err
	}
	workers := core.Range(1, 13)
	modelCurve, err := model.SpeedupCurve(workers)
	if err != nil {
		return Result{}, err
	}
	simCfg := sparksim.PaperFig2Config()
	simCfg.Seed = opts.Seed
	simCurve, err := sparksim.SpeedupCurve(simCfg, workers, opts.SimIterations)
	if err != nil {
		return Result{}, err
	}
	mape, err := metrics.MAPE(simCurve.Speedups(), modelCurve.Speedups())
	if err != nil {
		return Result{}, err
	}
	optN, optS, err := model.OptimalWorkers(13)
	if err != nil {
		return Result{}, err
	}
	simPeak, _ := simCurve.Peak()

	table := textio.NewTable("workers", "model t (s)", "model speedup", "sim t (s)", "sim speedup")
	for i, p := range modelCurve.Points {
		sp := simCurve.Points[i]
		table.AddRow(p.N, float64(p.Time), p.Speedup, float64(sp.Time), sp.Speedup)
	}
	plot, err := asciiplot.CurvePlot("Fig. 2 — speedup of one iteration, fully connected ANN",
		[]string{"model", "simulated experiment"},
		[][]int{workers, workers},
		[][]float64{modelCurve.Speedups(), simCurve.Speedups()}, 60, 14)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:          "fig2",
		Title:       "Speedup of one iteration for fully connected ANN training (Spark)",
		Description: "W=12e6 (64-bit), S=60000, F=0.8·105.6 GFLOPS, B=1 Gbit/s; model: 6WS/(Fn) + (64W/B)·log2(n) + 2·(64W/B)·ceil(sqrt n). Experimental points come from the discrete-event Spark simulator.",
		Table:       table,
		Plot:        plot,
		Metrics: map[string]float64{
			"MAPE %":                mape,
			"model optimal workers": float64(optN),
			"model peak speedup":    optS,
			"sim peak workers":      float64(simPeak.N),
			"sim peak speedup":      simPeak.Speedup,
		},
		PaperComparison: []Comparison{
			{"model optimal workers", "9", fmt.Sprintf("%d", optN)},
			{"MAPE vs experiment", "13.7%", fmt.Sprintf("%.1f%%", mape)},
			{"post-peak behaviour", "no speedup from more workers", postPeak(modelCurve, optN)},
		},
	}, nil
}

// postPeak reports whether any sampled point past n exceeds the speedup at
// n.
func postPeak(curve core.Curve, n int) string {
	var at float64
	exceeded := false
	for _, p := range curve.Points {
		if p.N == n {
			at = p.Speedup
		}
	}
	for _, p := range curve.Points {
		if p.N > n && p.Speedup > at {
			exceeded = true
		}
	}
	if exceeded {
		return "some later point exceeds the peak"
	}
	return "no sampled point past the peak exceeds it"
}
