// Command dmls-speedup is the paper's back-of-the-envelope calculator: given
// an algorithm's complexity figures and the hardware spec, it prints the
// speedup curve, the communication/computation crossover and the optimal
// worker count.
//
// Flags assemble a scenario and hand it to the registry-driven engine — the
// same path JSON scenario files and the experiment harness use. A -config
// file replaces the flags entirely; for whole suites and parameter sweeps
// see dmls-sweep.
//
// Example (the paper's Fig. 2 workload):
//
//	dmls-speedup -flops-per-example 72e6 -batch 60000 -params 12e6 \
//	  -precision 64 -peak-flops 105.6e9 -efficiency 0.8 \
//	  -bandwidth 1e9 -protocol spark -max 16
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/core"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/textio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind main, returning the exit code: 0 on success,
// 1 on a modeling error, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmls-speedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath      = fs.String("config", "", "JSON scenario file (overrides the other flags)")
		emitConfig      = fs.Bool("emit-config", false, "print the paper's Fig. 2 setup as a scenario file and exit")
		family          = fs.String("family", "gd-strong", "workload family: "+strings.Join(registry.Families(), ", "))
		flopsPerExample = fs.Float64("flops-per-example", 6*12e6, "C: training flops per example")
		batch           = fs.Float64("batch", 60000, "S: batch size")
		params          = fs.Float64("params", 12e6, "W: model parameter count")
		precision       = fs.Float64("precision", 64, "bits per shipped parameter")
		architecture    = fs.String("architecture", "", "derive C and W from a cataloged network: "+strings.Join(registry.Architectures(), ", "))
		hwPreset        = fs.String("hardware", "", "hardware preset ("+strings.Join(registry.NodePresets(), ", ")+"); overrides -peak-flops")
		peakFlops       = fs.Float64("peak-flops", 105.6e9, "node peak flops")
		efficiency      = fs.Float64("efficiency", 0.8, "achievable fraction of peak")
		bandwidth       = fs.Float64("bandwidth", 1e9, "network bandwidth, bit/s")
		protocol        = fs.String("protocol", "spark", "communication protocol: "+strings.Join(registry.LeafProtocolKinds(), ", ")+" (composed protocols need -config)")
		maxN            = fs.Int("max", 16, "largest worker count to evaluate")
		weak            = fs.Bool("weak", false, "weak scaling: shorthand for -family gd-weak")
		parallelism     = fs.Int("parallel", 0, "parallelism budget for curve sampling and Monte-Carlo trials; 0 means GOMAXPROCS, 1 forces serial")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallelism > 0 {
		core.SetParallelism(*parallelism)
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "dmls-speedup: %v\n", err)
		return 1
	}

	if *emitConfig {
		if err := scenario.Fig2().Encode(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	var sc scenario.Scenario
	if *configPath != "" {
		var err error
		sc, err = scenario.Load(*configPath)
		if err != nil {
			return fail(err)
		}
		// The scenario's own bound wins; otherwise -max becomes the
		// scenario's worker axis, which is what the model is priced over.
		if sc.MaxWorkers > 0 {
			*maxN = sc.MaxWorkers
		} else {
			sc.MaxWorkers = *maxN
		}
		fmt.Fprintf(stdout, "scenario: %s\n\n", sc.Name)
	} else {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if *weak {
			if explicit["family"] && *family != "gd-weak" && *family != "weak" {
				return fail(fmt.Errorf("-weak conflicts with -family %s", *family))
			}
			*family = "gd-weak"
		}
		sc = scenario.Scenario{
			Name: "workload",
			Workload: scenario.WorkloadSpec{
				Family:          *family,
				Architecture:    *architecture,
				FlopsPerExample: *flopsPerExample,
				BatchSize:       *batch,
				Parameters:      *params,
				PrecisionBits:   *precision,
			},
			Hardware:   scenario.HardwareSpec{Preset: *hwPreset, PeakFlops: *peakFlops, Efficiency: *efficiency, Name: "custom node"},
			Protocol:   scenario.ProtocolSpec{Kind: *protocol, BandwidthBitsPerSec: *bandwidth},
			MaxWorkers: *maxN,
		}
		if *architecture != "" {
			// Let the catalog fill the counted figures — but only where
			// the user didn't pass an explicit value; the flag defaults
			// are placeholders, explicit flags win over the catalog.
			if !explicit["flops-per-example"] {
				sc.Workload.FlopsPerExample = 0
			}
			if !explicit["params"] {
				sc.Workload.Parameters = 0
			}
		}
	}

	model, err := sc.ModelCtx(context.Background())
	if err != nil {
		return fail(err)
	}

	workers := core.Range(1, *maxN)
	curve, err := model.SpeedupCurve(workers)
	if err != nil {
		return fail(err)
	}
	table := textio.NewTable("workers", "t_cp (s)", "t_cm (s)", "t (s)", "speedup", "efficiency")
	for _, pt := range curve.Points {
		commTime := 0.0
		if model.Communication != nil {
			commTime = float64(model.Communication(pt.N))
		}
		table.AddRow(pt.N,
			float64(model.Computation(pt.N)),
			commTime,
			float64(pt.Time), pt.Speedup, pt.Speedup/float64(pt.N))
	}
	fmt.Fprintln(stdout, table.String())

	plot, err := asciiplot.CurvePlot("speedup", []string{model.Name},
		[][]int{workers}, [][]float64{curve.Speedups()}, 60, 14)
	if err == nil {
		fmt.Fprintln(stdout, plot)
	}

	optN, optS, err := model.OptimalWorkers(*maxN)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "optimal workers: %d (speedup %.2f)\n", optN, optS)
	if n, ok := model.CommComputeCrossover(*maxN); ok {
		fmt.Fprintf(stdout, "communication exceeds computation from %d workers\n", n)
	} else {
		fmt.Fprintf(stdout, "computation dominates through %d workers\n", *maxN)
	}
	scalable, err := model.IsScalable(*maxN)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "scalable (s(k) > 1 for some k ≤ %d): %v\n", *maxN, scalable)
	return 0
}
