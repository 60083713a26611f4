package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dmlscale/internal/obs"
	"dmlscale/internal/resilience"
)

// Job is one curve to evaluate: a model builder plus the worker counts to
// sample. Build runs inside the evaluation pool, so expensive construction
// (graph generation, Monte-Carlo estimation) parallelizes across jobs.
type Job struct {
	// Name labels the job in results; it also labels errors.
	Name string
	// Build constructs the model. It runs once, in the pool, under the
	// evaluation context, so construction-time work (Monte-Carlo kernels,
	// cache waits) observes cancellation.
	Build func(ctx context.Context) (Model, error)
	// Workers are the counts to sample.
	Workers []int
	// Base is the speedup reference count; 0 means 1.
	Base int
	// Key optionally fingerprints the job's model inputs. Jobs carrying
	// equal non-empty keys are promised identical — same Build output, same
	// Workers, same Base — so EvaluateStreamCtx evaluates the first
	// occurrence and fans its curve out to the rest instead of recomputing
	// it. Empty means never deduplicate.
	Key string
}

// JobResult is one evaluated curve, or the error that stopped it. Results
// keep the order of the jobs they came from.
type JobResult struct {
	// Name echoes the job name.
	Name string
	// Curve holds the sampled points when Err is nil.
	Curve Curve
	// Err records why this job failed; other jobs are unaffected. A job
	// abandoned by cancellation carries an error wrapping the context's —
	// errors.Is(Err, context.Canceled/DeadlineExceeded) distinguishes
	// "request abandoned" from "model broken".
	Err error
	// Deduped marks a result served by relabeling an identical job's curve
	// (equal non-empty Key) instead of evaluating this job; the points
	// slice is shared with the evaluated job and must stay read-only.
	Deduped bool
	// BuildTime and SampleTime split the job's wall time between model
	// construction (Build: catalog resolution, graph generation and, for
	// the graph families, the Monte-Carlo kernel that prices the whole
	// worker axis) and curve sampling (evaluating the built model's time
	// functions, a table lookup for the graph families). Both are zero on
	// deduped results. On a retried job they sum across attempts, so the
	// time a flaky cell actually cost is what gets reported.
	BuildTime  time.Duration
	SampleTime time.Duration
	// Retries counts how many whole-job re-attempts the retry policy took
	// after transient failures (kernel-level retries inside the registry
	// are not included — they resolve below the job). 0 on the common path.
	Retries int
}

// IsCancelled reports whether the result records a context cancellation or
// deadline expiry rather than a model failure.
func (r JobResult) IsCancelled() bool {
	return resilience.IsCancelled(r.Err)
}

// cancelResult is the result of a job abandoned before (or during)
// evaluation because the context was done.
func cancelResult(name string, err error) JobResult {
	return JobResult{Name: name, Err: fmt.Errorf("core: job %q cancelled: %w", name, err)}
}

// ForEachCtx runs body(i) for every i in [0, n), work-stealing indices over
// an atomic counter on the caller's goroutine plus as many extra workers as
// the shared parallelism budget grants. parallelism caps the workers within
// that budget (≤ 0 means no extra cap — it cannot raise concurrency above
// the budget). Bodies that write results by index are deterministic at any
// parallelism. Once ctx is done, workers stop pulling new indices (bodies
// already running finish — they are never preempted). Indices are pulled
// in ascending order and every pulled index runs, so the visited set is
// always a prefix: ForEachCtx returns its length m, and callers that must
// fill every slot complete [m, n) themselves. A panic in any body is
// re-raised on the caller after all workers settle, and budget tokens are
// returned on every path (see Budget.fanOut).
func ForEachCtx(ctx context.Context, n, parallelism int, body func(i int)) int {
	if n <= 0 {
		return 0
	}
	done := ctx.Done()
	var next atomic.Int64
	runWorkers(parallelism, n, func() bool {
		if isDone(done) {
			return false
		}
		i := int(next.Add(1)) - 1
		if i >= n {
			return false
		}
		body(i)
		return true
	})
	return min(int(next.Load()), n)
}

// runWorkers drives step — "process one unit, report whether there was
// one" — on up to parallelism workers (≤ 0 or above the budget means the
// budget's limit), at most count of them when count > 0, through the
// shared budget's pool.
func runWorkers(parallelism, count int, step func() bool) {
	budget := SharedBudget()
	workers := parallelism
	if workers <= 0 || workers > budget.Limit() {
		workers = budget.Limit()
	}
	if count > 0 && workers > count {
		workers = count
	}
	budget.fanOut(workers, func(int, int) {
		for step() {
		}
	})
}

// isDone reports whether a context's done channel has closed; the nil
// channel of a context that can never fire is never done.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// recordDedup emits an instant span marking a curve served by relabeling a
// representative's instead of evaluating — visible in traces as zero-cost
// cells. Free when tracing is off.
func recordDedup(ctx context.Context, name string) {
	_, sp := obs.Start(ctx, "dedup")
	sp.SetString("cell", name)
	sp.End()
}

// evaluateOne runs a single job under the process retry policy: transient
// failures (resilience.IsTransient — injected kernel faults, attempt
// timeouts) re-evaluate the whole job with capped jittered backoff, as
// long as the policy's attempt cap and the shared retry budget allow.
// Deterministic failures and cancellations never retry. The result's
// Retries counts the re-attempts and its build/sample times sum across
// them; the values of a retried success are bit-identical to a never-
// faulted run's, because every model this module builds is deterministic.
func evaluateOne(ctx context.Context, job Job) JobResult {
	res := evaluateOnce(ctx, job)
	if res.Err == nil {
		resilience.Default().OnSuccess()
		return res
	}
	pol := resilience.Default()
	key := resilience.Key(job.Name)
	for attempt := 0; res.Err != nil && pol.ShouldRetry(ctx, res.Err, attempt); attempt++ {
		if !resilience.Sleep(ctx, pol.Delay(key, attempt)) {
			break
		}
		again := evaluateOnce(ctx, job)
		again.Retries = attempt + 1
		again.BuildTime += res.BuildTime
		again.SampleTime += res.SampleTime
		res = again
		if res.Err == nil {
			pol.OnSuccess()
		}
	}
	return res
}

// evaluateOnce runs a single attempt of a job, converting panics into
// errors so a broken model cannot kill the pool. A done context
// short-circuits to a cancelled result; a build cut short by cancellation
// returns the context's error, which becomes a cancelled result too.
func evaluateOnce(ctx context.Context, job Job) (res JobResult) {
	res.Name = job.Name
	// The cell span parents everything the job does — including the
	// kernel work the graph families run at build time — so traces nest
	// suite→cell→kernel. Build/sample phase spans are timing children
	// only. All spans end in the recover defer so a panicking job leaks
	// none.
	ctx, span := obs.Start(ctx, "cell")
	span.SetString("cell", job.Name)
	var bspan, sspan *obs.Span
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("core: job %q panicked: %v", job.Name, r)
		}
		bspan.End()
		sspan.End()
		span.SetError(res.Err)
		span.End()
	}()
	if err := ctx.Err(); err != nil {
		return cancelResult(job.Name, err)
	}
	if job.Build == nil {
		res.Err = fmt.Errorf("core: job %q has no builder", job.Name)
		return res
	}
	start := time.Now()
	_, bspan = obs.Start(ctx, "build")
	model, err := job.Build(ctx)
	bspan.End()
	res.BuildTime = time.Since(start)
	if err != nil {
		if resilience.IsCancelled(err) {
			return cancelResult(job.Name, err)
		}
		res.Err = fmt.Errorf("core: job %q: %w", job.Name, err)
		return res
	}
	base := job.Base
	if base <= 0 {
		base = 1
	}
	start = time.Now()
	_, sspan = obs.Start(ctx, "sample")
	curve, err := model.SpeedupCurveRelative(base, job.Workers)
	sspan.End()
	res.SampleTime = time.Since(start)
	if err != nil {
		res.Err = fmt.Errorf("core: job %q: %w", job.Name, err)
		return res
	}
	res.Curve = curve
	return res
}
