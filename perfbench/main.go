// Command perfbench is dmlscale's layered benchmark. One run measures one
// named workload for a fixed time against the module's public functions,
// checks every operation's output against a reference built in set-up, and
// prints its metrics by name and unit: the end-to-end metrics of
// BENCHMARK.json untraced, or its per-layer metrics with --trace 1. The last
// line of standard output is one JSON object; a fuller record, with the
// machine it ran on, goes to a result file.
//
//	bash perfbench/run.sh --workload serve-whatif-warm --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh compare <parent-results> <change-results>
//
// Run it from the repository root; perfbench/LAYERS.md explains the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchDir is the benchmark's directory, relative to the repository root.
const benchDir = "perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length and the metric names, units, directions and bounds, so they are
// written down once.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// config is one run's flags.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 0, "measured run time in seconds (default BENCHMARK.json's run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics with spans, 0 the end-to-end metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", benchDir, "results"), "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || fs.NArg() > 0 || cfg.seconds < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.seconds == 0 {
		cfg.seconds = spec.RunSeconds
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1 or run_seconds in BENCHMARK.json")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := runWorkload(ctx, cfg, spec)
	if err == nil {
		err = writeResult(cfg, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stdout, rec)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the result file's schema, the same for every workload.
type record struct {
	Schema    string    `json:"schema"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
	Started   time.Time `json:"started"`
	Machine   machine   `json:"machine"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	ErrorRate float64   `json:"error_rate"`
	// Errors holds the first few failure messages.
	Errors []string `json:"errors,omitempty"`
	// Samples is the number of measured operations the percentiles and
	// rates come from; TailPercentile is the highest percentile with at
	// least ten of them beyond it.
	Samples        int     `json:"samples"`
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	TailMS         float64 `json:"tail_ms,omitempty"`
	// WindowP50MS is the median latency of the ops started in each of the
	// measured phase's equal windows.
	WindowP50MS  []float64 `json:"window_p50_ms,omitempty"`
	SetupSeconds []float64 `json:"setup_seconds"`
	// MaxRSSMB is the process's lifetime peak resident set, set-up
	// included, as the kernel counts it; peak_rss_mb is the measured
	// phase's own peak.
	MaxRSSMB float64                `json:"max_rss_mb,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Spans aggregates the traced run's spans by name.
	Spans map[string]layerTime `json:"spans,omitempty"`
	// spans are the traced run's raw spans, written beside the result.
	spans []span
}

const schema = "dmlscale-perfbench/1"

// writeResult writes the record, and in a traced run its spans, under
// cfg.out.
func writeResult(cfg config, rec *record) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, trace, rec.Started.UnixNano()))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.trace {
		return writeSpans(base+".spans.jsonl", rec.spans)
	}
	return nil
}

// printSummary prints one line per metric for people; the JSON line
// follows it.
func printSummary(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed (%s, %d CPUs, %s)\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Machine.GoVersion, rec.Machine.NumCPU, rec.Machine.CPUModel)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}
