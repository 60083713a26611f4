// Command dmls-sweep evaluates a whole suite of scenarios — an explicit
// list, a parameter sweep (bandwidth × protocol × precision × worker range)
// over a base scenario, or both — concurrently, and renders the comparison:
// one row per scenario with its peak speedup and optimum, plus an overlaid
// speedup plot.
//
// Usage:
//
//	dmls-sweep -suite examples/suites/fig2-bandwidth-sweep.json
//	dmls-sweep -emit-example > suite.json
//	dmls-sweep -suite suite.json -parallel 4 -curves
//	dmls-sweep -suite suite.json -format csv > results.csv
//	dmls-sweep -suite suite.json -format json | jq .results
//
// -format csv|json replaces the ASCII rendering with a machine-readable
// export so deployment tools can consume sweep results. -parallel sizes the
// shared parallelism budget that both suite-level curve workers and
// intra-curve Monte-Carlo shards draw from. -stats appends a cache
// observability report on stderr: the Monte-Carlo kernel-cache hit ratio,
// how many curves were deduplicated (identical cells evaluated once and
// fanned out), and the build-versus-sample wall-time split.
//
// A failing scenario (unknown preset, bad figures) reports its error in the
// table; the rest of the suite still evaluates — but the process then exits
// 1, so scripts cannot mistake a partially failed sweep for a clean one.
// -keep-going restores exit 0 for partial failures (a fully failed suite
// still exits 1). SIGINT/SIGTERM cancels the in-flight grid: already
// evaluated cells render (cancelled ones carry a "cancelled" error), -stats
// still flushes, and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/cli"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/textio"
)

// maxPlotCurves bounds how many curves the overlay plot draws before it
// stops being readable.
const maxPlotCurves = 8

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command under test: flags from args, rendering to the
// given writers, cancellation from ctx, the exit code returned instead of
// called.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmls-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := &cli.Run{Cmd: "dmls-sweep", Stderr: stderr}
	r.Flags.Register(fs, cli.Usage{
		Parallel:    "total parallelism budget shared by suite-level curve workers and intra-curve Monte-Carlo shards; 0 means GOMAXPROCS",
		Stats:       "report kernel-cache hit ratio, curve dedup and wall-time split on stderr",
		Trace:       "write a Chrome/Perfetto trace of the evaluation (suite→cell→kernel spans) to this file",
		EmitExample: "print an example sweep suite and exit",
		Checkpoint:  "append-only journal file recording finished cells and kernel estimates as they land; a killed run resumes from it with -resume",
		Resume:      "replay the -checkpoint journal (validated against this suite) and evaluate only the missing cells; a missing or empty journal starts fresh",
	})
	curves := fs.Bool("curves", false, "print every scenario's full speedup curve (table format)")
	noPlot := fs.Bool("no-plot", false, "skip the overlaid speedup plot")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if r.Flags.EmitExample {
		if err := exampleSuite().Encode(stdout); err != nil {
			return r.Fail(err)
		}
		return 0
	}
	if err := r.Start(); err != nil {
		return r.Fail(err)
	}
	var cp scenario.Checkpoint
	if r.Journal != nil {
		cp = r.Journal
		if r.Journal.Resumed {
			fmt.Fprintf(stderr, "dmls-sweep: resuming from %s: %d cells and %d kernel estimates replayed\n",
				r.Flags.Checkpoint, r.Journal.CellsReplayed, r.Journal.KernelReplayed)
		}
	}
	results, evalStats, err := scenario.EvaluateSuiteCheckpointCtx(ctx, r.Suite, 0, cp)
	if err := r.Finish(err); err != nil {
		return r.Fail(err)
	}

	switch r.Flags.Format {
	case "csv":
		if err := scenario.WriteResultsCSV(stdout, results); err != nil {
			return r.Fail(err)
		}
	case "json":
		if err := scenario.WriteResultsJSON(stdout, r.Suite.Name, results); err != nil {
			return r.Fail(err)
		}
	default:
		fmt.Fprintf(stdout, "suite: %s (%d scenarios)\n\n", r.Suite.Name, len(results))
		fmt.Fprintln(stdout, summaryTable(results).String())

		if !*noPlot {
			if plot, ok := overlayPlot(results); ok {
				fmt.Fprintln(stdout, plot)
			}
		}
		if *curves {
			for _, res := range results {
				if res.Err != nil {
					continue
				}
				fmt.Fprintf(stdout, "\n%s\n", res.Scenario.Name)
				table := textio.NewTable("workers", "t (s)", "speedup")
				for _, p := range res.Curve.Points {
					table.AddRow(p.N, float64(p.Time), p.Speedup)
				}
				fmt.Fprintln(stdout, table.String())
			}
		}
	}

	if r.Flags.Stats {
		fmt.Fprint(stderr, statsReport(evalStats, registry.SnapshotCaches(), r.Elapsed))
	}
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
		}
	}
	progress := fmt.Sprintf("%d of %d cells evaluated", evalStats.Evaluated+evalStats.CurvesDeduped, evalStats.Scenarios)
	return r.Exit(progress, failed, len(results))
}

// statsReport renders the -stats block: the suite-level evaluation figures,
// the wall-time split (including how much of it was Monte-Carlo kernel
// compute), the slowest cells and the process-wide cache counters (which, in
// a CLI run, cover exactly this evaluation).
func statsReport(st scenario.EvalStats, caches registry.CacheStats, elapsed time.Duration) string {
	line := fmt.Sprintf("stats: %d cells: %d evaluated, %d deduped, %d pruned, %d refined, %d failed",
		st.Scenarios, st.Evaluated, st.CurvesDeduped, st.Pruned, st.Refined, st.Failed)
	if st.Cancelled > 0 {
		line += fmt.Sprintf(", %d cancelled", st.Cancelled)
	}
	if st.ResumedCells > 0 {
		line += fmt.Sprintf(", %d resumed from checkpoint", st.ResumedCells)
	}
	if st.Retried > 0 {
		line += fmt.Sprintf(", %d transient retries", st.Retried)
	}
	out := line + fmt.Sprintf("; %v elapsed (build %v + sample %v summed across cells)\n",
		elapsed.Round(time.Microsecond),
		st.BuildTime.Round(time.Microsecond), st.SampleTime.Round(time.Microsecond))
	out += fmt.Sprintf("stats: kernel compute %v of the build time (cache misses only; a cache hit still fingerprints its degree sequence, which build includes)\n",
		st.KernelComputeTime.Round(time.Microsecond))
	out += cli.SlowestCells(st.SlowestCells)
	return out + caches.Report()
}

// summaryTable renders one row per scenario: optimum, peak, tail speedup,
// or the error that stopped it.
func summaryTable(results []scenario.Result) *textio.Table {
	table := textio.NewTable("scenario", "optimal workers", "peak speedup", "s(max)", "status")
	for _, res := range results {
		if res.Err != nil {
			table.AddRow(res.Scenario.Name, "-", "-", "-", res.Err.Error())
			continue
		}
		tail := res.Curve.Points[len(res.Curve.Points)-1]
		table.AddRow(res.Scenario.Name, res.OptimalN,
			fmt.Sprintf("%.2f", res.PeakSpeedup),
			fmt.Sprintf("%.2f at %d", tail.Speedup, tail.N),
			"ok")
	}
	return table
}

// overlayPlot draws the successful curves on one canvas, up to
// maxPlotCurves of them.
func overlayPlot(results []scenario.Result) (string, bool) {
	var (
		names    []string
		workers  [][]int
		speedups [][]float64
	)
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		names = append(names, res.Scenario.Name)
		workers = append(workers, res.Curve.Workers())
		speedups = append(speedups, res.Curve.Speedups())
		if len(names) == maxPlotCurves {
			break
		}
	}
	if len(names) == 0 {
		return "", false
	}
	plot, err := asciiplot.CurvePlot("speedup", names, workers, speedups, 72, 18)
	if err != nil {
		return "", false
	}
	return plot, true
}

// exampleSuite is the -emit-example payload: the Fig. 2 workload swept over
// bandwidth and protocol.
func exampleSuite() scenario.Suite {
	return scenario.Suite{
		Name: "Fig. 2 workload: bandwidth × protocol sweep",
		Sweep: &scenario.Sweep{
			Base:                 scenario.Fig2(),
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
			Protocols:            []string{"spark", "two-stage-tree", "ring", "linear"},
		},
		MaxWorkers: 32,
	}
}
