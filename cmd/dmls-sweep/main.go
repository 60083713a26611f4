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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/resume"
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
	var (
		suitePath   = fs.String("suite", "", "JSON suite (or single-scenario) file")
		parallelism = fs.Int("parallel", 0, "total parallelism budget shared by suite-level curve workers and intra-curve Monte-Carlo shards; 0 means GOMAXPROCS")
		format      = fs.String("format", "table", "output format: table, csv or json")
		curves      = fs.Bool("curves", false, "print every scenario's full speedup curve (table format)")
		noPlot      = fs.Bool("no-plot", false, "skip the overlaid speedup plot")
		stats       = fs.Bool("stats", false, "report kernel-cache hit ratio, curve dedup and wall-time split on stderr")
		tracePath   = fs.String("trace", "", "write a Chrome/Perfetto trace of the evaluation (suite→cell→kernel spans) to this file")
		emitExample = fs.Bool("emit-example", false, "print an example sweep suite and exit")
		keepGoing   = fs.Bool("keep-going", false, "exit 0 even when some scenarios fail (a fully failed suite still exits 1)")
		ckptPath    = fs.String("checkpoint", "", "append-only journal file recording finished cells and kernel estimates as they land; a killed run resumes from it with -resume")
		resumeRun   = fs.Bool("resume", false, "replay the -checkpoint journal (validated against this suite) and evaluate only the missing cells; a missing or empty journal starts fresh")
		retries     = fs.Int("retries", -1, "max retries per transient fault at the kernel and cell layers; 0 disables retry, -1 keeps the default (2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "dmls-sweep: %v\n", err)
		return 1
	}

	if *emitExample {
		if err := exampleSuite().Encode(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *suitePath == "" {
		return fail(fmt.Errorf("missing -suite (or -emit-example)"))
	}
	if *format != "table" && *format != "csv" && *format != "json" {
		return fail(fmt.Errorf("unknown -format %q (table, csv, json)", *format))
	}
	suite, err := scenario.LoadSuite(*suitePath)
	if err != nil {
		return fail(err)
	}
	if *parallelism > 0 {
		core.SetParallelism(*parallelism)
	}
	applyRetries(*retries)
	if *resumeRun && *ckptPath == "" {
		return fail(fmt.Errorf("-resume needs -checkpoint"))
	}
	var (
		cpRun *resume.Run
		cp    scenario.Checkpoint
	)
	if *ckptPath != "" {
		cs, err := suite.Cells()
		if err != nil {
			return fail(err)
		}
		cpRun, err = resume.Open(*ckptPath, suite.Name, cs.Len(), *resumeRun)
		if err != nil {
			return fail(err)
		}
		cp = cpRun
		if cpRun.Resumed {
			fmt.Fprintf(stderr, "dmls-sweep: resuming from %s: %d cells and %d kernel estimates replayed\n",
				*ckptPath, cpRun.CellsReplayed, cpRun.KernelReplayed)
		}
	}
	var traceBuf *obs.TraceBuffer
	if *tracePath != "" {
		traceBuf = obs.NewTraceBuffer(0)
		obs.SetRecorder(traceBuf)
		defer obs.SetRecorder(nil)
	}
	start := time.Now()
	results, evalStats, err := scenario.EvaluateSuiteCheckpointCtx(ctx, suite, 0, cp)
	interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	var ckptErr error
	if cpRun != nil {
		// Close before rendering: the journal must be durable even if the
		// render path fails, and an append failure must not exit 0.
		ckptErr = cpRun.Close()
	}
	if err != nil && !interrupted {
		return fail(err)
	}
	elapsed := time.Since(start)
	if traceBuf != nil {
		obs.SetRecorder(nil)
		if terr := writeTrace(*tracePath, traceBuf); terr != nil {
			return fail(terr)
		}
		fmt.Fprintf(stderr, "dmls-sweep: wrote %d spans to %s\n", traceBuf.Ended(), *tracePath)
	}
	reportStats := func() {
		if *stats {
			fmt.Fprint(stderr, statsReport(evalStats, registry.SnapshotCaches(), elapsed))
		}
	}

	switch *format {
	case "csv":
		if err := scenario.WriteResultsCSV(stdout, results); err != nil {
			return fail(err)
		}
	case "json":
		if err := scenario.WriteResultsJSON(stdout, suite.Name, results); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintf(stdout, "suite: %s (%d scenarios)\n\n", suite.Name, len(results))
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

	reportStats()
	if ckptErr != nil {
		fmt.Fprintf(stderr, "dmls-sweep: checkpoint: %v\n", ckptErr)
	}
	if interrupted {
		fmt.Fprintf(stderr, "dmls-sweep: interrupted; partial results above (%d of %d cells evaluated)\n",
			evalStats.Evaluated+evalStats.CurvesDeduped, evalStats.Scenarios)
		if *ckptPath != "" {
			fmt.Fprintf(stderr, "dmls-sweep: resume with: -suite %s -checkpoint %s -resume\n", *suitePath, *ckptPath)
		}
		return 130
	}
	if ckptErr != nil {
		return 1
	}
	return exitCode("dmls-sweep", countFailures(results), len(results), *keepGoing, stderr)
}

// applyRetries overrides the process-wide retry policy's attempt count:
// -retries N allows N retries after the first attempt, 0 disables retrying
// entirely, and a negative value keeps the built-in default.
func applyRetries(retries int) {
	if retries < 0 {
		return
	}
	p := resilience.Default()
	p.MaxAttempts = retries + 1
	resilience.SetDefault(p)
}

// countFailures counts the results that carry their own evaluation error.
func countFailures(results []scenario.Result) int {
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
		}
	}
	return failed
}

// exitCode turns the failure count into the process exit code: 0 for a
// clean run, 1 when anything failed — unless keepGoing, which tolerates
// partial failure (warned on stderr) but never a fully failed suite.
func exitCode(cmd string, failed, total int, keepGoing bool, stderr io.Writer) int {
	if failed == 0 {
		return 0
	}
	if failed == total {
		fmt.Fprintf(stderr, "%s: all %d scenarios failed\n", cmd, failed)
		return 1
	}
	fmt.Fprintf(stderr, "%s: %d of %d scenarios failed (see results)\n", cmd, failed, total)
	if keepGoing {
		return 0
	}
	return 1
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
	out += slowestCellsReport(st.SlowestCells)
	return out + caches.Report()
}

// slowestCellsReport renders the top-k slowest cells, one line, or nothing
// when no cell recorded a timing.
func slowestCellsReport(cells []scenario.CellTiming) string {
	if len(cells) == 0 {
		return ""
	}
	out := "stats: slowest cells:"
	for i, ct := range cells {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(" %s %v", ct.Name, ct.Total.Round(time.Microsecond))
		if ct.Build > 0 || ct.Sample > 0 {
			out += fmt.Sprintf(" (build %v + sample %v)",
				ct.Build.Round(time.Microsecond), ct.Sample.Round(time.Microsecond))
		}
	}
	return out + "\n"
}

// writeTrace flushes the recorded spans as a Chrome/Perfetto trace file.
func writeTrace(path string, buf *obs.TraceBuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := buf.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
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
