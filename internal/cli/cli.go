// Package cli is the run lifecycle dmls-sweep and dmls-plan share: the
// common flags, suite load with the parallelism and retry setup, the
// checkpoint journal, the trace buffer, and the exit-code policy. A command
// calls these plain functions in order — Register, Start, its own
// evaluation, Finish, its own rendering, Exit — and keeps only its own
// flags, evaluation call and renderers.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/resilience"
	"dmlscale/internal/resume"
	"dmlscale/internal/scenario"
)

// Flags are the flag values both suite commands take.
type Flags struct {
	Suite       string
	Parallel    int
	Format      string
	Stats       bool
	Trace       string
	EmitExample bool
	KeepGoing   bool
	Checkpoint  string
	Resume      bool
	Retries     int
}

// Usage is the help text of the shared flags whose meaning differs between
// a sweep and a plan.
type Usage struct {
	Parallel, Stats, Trace, EmitExample, Checkpoint, Resume string
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet, u Usage) {
	fs.StringVar(&f.Suite, "suite", "", "JSON suite (or single-scenario) file")
	fs.IntVar(&f.Parallel, "parallel", 0, u.Parallel)
	fs.StringVar(&f.Format, "format", "table", "output format: table, csv or json")
	fs.BoolVar(&f.Stats, "stats", false, u.Stats)
	fs.StringVar(&f.Trace, "trace", "", u.Trace)
	fs.BoolVar(&f.EmitExample, "emit-example", false, u.EmitExample)
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "exit 0 even when some scenarios fail (a fully failed suite still exits 1)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", u.Checkpoint)
	fs.BoolVar(&f.Resume, "resume", false, u.Resume)
	fs.IntVar(&f.Retries, "retries", -1, "max retries per transient fault at the kernel and cell layers; 0 disables retry, -1 keeps the default (2)")
}

// Run is one invocation's lifecycle state. Fill Cmd, Flags and Stderr,
// then call Start.
type Run struct {
	Cmd    string
	Flags  Flags
	Stderr io.Writer

	// Suite is the loaded suite, set by Start.
	Suite scenario.Suite
	// Journal is the open -checkpoint journal, nil without one.
	Journal *resume.Run
	// Elapsed is the evaluation's wall time, set by Finish.
	Elapsed time.Duration

	trace       *obs.TraceBuffer
	start       time.Time
	ckptErr     error
	interrupted bool
}

// Fail reports err on stderr and returns exit code 1.
func (r *Run) Fail(err error) int {
	fmt.Fprintf(r.Stderr, "%s: %v\n", r.Cmd, err)
	return 1
}

// Start checks the shared flags, loads the suite, applies -parallel and
// -retries, opens the -checkpoint journal, installs the -trace recorder and
// starts the clock. Once it returns nil the caller must call Finish.
func (r *Run) Start() error {
	f := r.Flags
	if f.Suite == "" {
		return fmt.Errorf("missing -suite (or -emit-example)")
	}
	if f.Format != "table" && f.Format != "csv" && f.Format != "json" {
		return fmt.Errorf("unknown -format %q (table, csv, json)", f.Format)
	}
	suite, err := scenario.LoadSuite(f.Suite)
	if err != nil {
		return err
	}
	r.Suite = suite
	if f.Parallel > 0 {
		core.SetParallelism(f.Parallel)
	}
	applyRetries(f.Retries)
	if f.Resume && f.Checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if f.Checkpoint != "" {
		cs, err := suite.Cells()
		if err != nil {
			return err
		}
		if r.Journal, err = resume.Open(f.Checkpoint, suite.Name, cs.Len(), f.Resume); err != nil {
			return err
		}
	}
	if f.Trace != "" {
		r.trace = obs.NewTraceBuffer(0)
		obs.SetRecorder(r.trace)
	}
	r.start = time.Now()
	return nil
}

// Finish ends the evaluation that returned err: it closes the journal
// before anything renders (so it is durable even if rendering fails; a
// close error is reported by Exit), stops the clock and flushes the trace.
// Cancellation is an interrupt, not a failure: Finish then returns nil and
// the caller renders the partial results. Any other error comes back for
// the caller to Fail with.
func (r *Run) Finish(err error) error {
	if r.trace != nil {
		obs.SetRecorder(nil)
	}
	r.interrupted = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if r.Journal != nil {
		r.ckptErr = r.Journal.Close()
	}
	if err != nil && !r.interrupted {
		return err
	}
	r.Elapsed = time.Since(r.start)
	if r.trace != nil {
		if err := writeTrace(r.Flags.Trace, r.trace); err != nil {
			return err
		}
		fmt.Fprintf(r.Stderr, "%s: wrote %d spans to %s\n", r.Cmd, r.trace.Ended(), r.Flags.Trace)
	}
	return nil
}

// Exit reports a journal close error and returns the exit code: 130 after
// an interrupt (progress says how far the run got), 1 after a journal
// error, else 0 for a clean run and 1 when any of total scenarios failed —
// unless -keep-going, which tolerates partial failure (warned on stderr)
// but never a fully failed suite.
func (r *Run) Exit(progress string, failed, total int) int {
	if r.ckptErr != nil {
		fmt.Fprintf(r.Stderr, "%s: checkpoint: %v\n", r.Cmd, r.ckptErr)
	}
	if r.interrupted {
		fmt.Fprintf(r.Stderr, "%s: interrupted; partial results above (%s)\n", r.Cmd, progress)
		if r.Flags.Checkpoint != "" {
			fmt.Fprintf(r.Stderr, "%s: resume with: -suite %s -checkpoint %s -resume\n", r.Cmd, r.Flags.Suite, r.Flags.Checkpoint)
		}
		return 130
	}
	if r.ckptErr != nil {
		return 1
	}
	if failed == 0 {
		return 0
	}
	if failed == total {
		fmt.Fprintf(r.Stderr, "%s: all %d scenarios failed\n", r.Cmd, failed)
		return 1
	}
	fmt.Fprintf(r.Stderr, "%s: %d of %d scenarios failed (see results)\n", r.Cmd, failed, total)
	if r.Flags.KeepGoing {
		return 0
	}
	return 1
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

// SlowestCells renders the top-k slowest cells as one -stats line, or
// nothing when no cell recorded a timing. A cell's build/sample split is
// shown when it has one.
func SlowestCells(cells []scenario.CellTiming) string {
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
