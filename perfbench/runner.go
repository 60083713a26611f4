package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/memo"
	"dmlscale/internal/partition"
	"dmlscale/internal/registry"
	"dmlscale/internal/serve"
)

// rateWindows is how many equal windows a phase's throughput is measured
// over; the reported rate is their median, so a burst of load from outside
// the benchmark moves one window, not the run.
const rateWindows = 10

// warmup runs ops untimed after set-up, so connections, code paths and the
// heap settle before the measured phase.
const warmup = 2 * time.Second

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// maxErrors bounds the failure messages a record keeps.
const maxErrors = 5

// phase is one closed-loop measurement.
type phase struct {
	results   []opResult
	latencies []float64 // milliseconds
	// opTimes are the ops' start and end since the phase started, for
	// rates over windows of length window.
	opTimes [][2]time.Duration
	window  time.Duration
	elapsed time.Duration
	cpu     time.Duration
	allocs  uint64
	gcs     uint32
	// caches and kernel are the registry counters' deltas over the phase.
	caches registry.CacheStats
	kernel time.Duration
	// server is the server counters' delta, when the workload has one.
	server *serve.Metrics
	// peakRSS is the largest resident set seen during the phase, in bytes.
	peakRSS uint64
}

func (p *phase) ops() int { return len(p.results) }

// lockstep is a workload whose clients start their ops in rounds; measure
// tells it how many clients loop and when each stops.
type lockstep interface {
	join(clients int)
	leave()
}

// counters returns the registry's cumulative counters, or those w keeps
// when its ops reset the registry's.
func counters(w workload) (registry.CacheStats, time.Duration) {
	if c, ok := w.(interface {
		counters() (registry.CacheStats, time.Duration)
	}); ok {
		return c.counters()
	}
	return registry.SnapshotCaches(), registry.KernelComputeTime()
}

// measure runs w's closed loop for d: each client issues its next op as
// soon as the previous one returns, and no client starts an op after d. A
// traced lockstep workload runs one client: the kernel-time counter its
// probe reads is process-wide, so a second client's kernel would show up in
// the first one's spans.
func measure(ctx context.Context, w workload, d time.Duration, tr *tracer, firstOp int) *phase {
	var next atomic.Int64
	next.Store(int64(firstOp))
	type sample struct {
		begin, end time.Duration
		res        opResult
	}
	clients := w.clients()
	ls, isLockstep := w.(lockstep)
	if isLockstep {
		if tr != nil {
			clients = 1
		}
		ls.join(clients)
	}
	per := make([][]sample, clients)
	// Hand the memory set-up and earlier phases freed back to the OS, so
	// the phase's peak resident set is its own.
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, k0 := counters(w)
	u0 := readUsage()
	srv, hasServer := w.(interface{ metrics() serve.Metrics })
	var s0 serve.Metrics
	if hasServer {
		s0 = srv.metrics()
	}
	rss := startRSSSampler()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if isLockstep {
				defer ls.leave()
			}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				t0 := time.Since(start)
				res := w.op(ctx, i, tr)
				per[c] = append(per[c], sample{t0, time.Since(start), res})
			}
		}()
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start), window: d / rateWindows, peakRSS: rss.peak()}
	u1 := readUsage()
	c1, k1 := counters(w)
	runtime.ReadMemStats(&ms1)
	p.cpu = u1.cpu - u0.cpu
	p.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	p.caches, p.kernel = cacheAdd(c1, c0, -1), k1-k0
	if hasServer {
		s1 := srv.metrics()
		p.server = &serve.Metrics{Shed: s1.Shed - s0.Shed, Coalesced: s1.Coalesced - s0.Coalesced}
	}
	for _, ss := range per {
		for _, s := range ss {
			p.results = append(p.results, s.res)
			p.latencies = append(p.latencies, float64(s.end-s.begin)/float64(time.Millisecond))
			p.opTimes = append(p.opTimes, [2]time.Duration{s.begin, s.end})
		}
	}
	return p
}

// cacheAdd returns a + k·b counter by counter: k = 1 sums two snapshots,
// k = -1 takes a delta.
func cacheAdd(a, b registry.CacheStats, k int64) registry.CacheStats {
	stats := func(a, b memo.Stats) memo.Stats {
		return memo.Stats{Hits: a.Hits + k*b.Hits, Misses: a.Misses + k*b.Misses, Evictions: a.Evictions + k*b.Evictions, Drops: a.Drops + k*b.Drops}
	}
	return registry.CacheStats{
		Degrees:         stats(a.Degrees, b.Degrees),
		Graphs:          stats(a.Graphs, b.Graphs),
		Estimates:       stats(a.Estimates, b.Estimates),
		KernelBatches:   a.KernelBatches + k*b.KernelBatches,
		KernelBatchKeys: a.KernelBatchKeys + k*b.KernelBatchKeys,
		KernelSingles:   a.KernelSingles + k*b.KernelSingles,
	}
}

// runWorkload sets the workload up setups times, warms it, and measures
// it: one untraced phase for the end-to-end metrics, or an untraced and a
// traced half for the per-layer metrics.
func runWorkload(ctx context.Context, cfg config, spec benchSpec) (*record, error) {
	w := workloads[cfg.workload]()
	defer w.close()
	rec := &record{
		Schema:   schema,
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Started:  time.Now().UTC(),
		Machine:  describeMachine("."),
	}
	defer core.SetParallelism(0)
	for k := 0; k < setups; k++ {
		core.SetParallelism(0)
		registry.ResetCaches()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupSeconds = append(rec.SetupSeconds, time.Since(t0).Seconds())
	}
	core.SetParallelism(w.parallelism())
	warm := measure(ctx, w, warmup, nil, 0)
	phases := []*phase{warm}
	values := map[string]float64{}
	run := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		p := measure(ctx, w, run, nil, warm.ops())
		phases = append(phases, p)
		endToEnd(values, p, rec)
	} else {
		a := measure(ctx, w, run/2, nil, warm.ops())
		tr := newTracer()
		b := measure(ctx, w, run/2, tr, warm.ops()+a.ops())
		phases = append(phases, a, b)
		rec.spans = tr.snapshot()
		rec.Spans = spanTimes(rec.spans)
		draws, err := drawRate(ctx, w.graphs())
		if err != nil {
			return nil, err
		}
		perLayer(values, a, b, rec.Spans, draws)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range phases[1:] {
		if p.ops() == 0 {
			return nil, fmt.Errorf("a measured phase completed no op; run longer than %ds", cfg.seconds)
		}
		if p.peakRSS == 0 {
			return nil, fmt.Errorf("cannot read the resident set from /proc/self/statm")
		}
	}
	tally(rec, phases)
	values["error_rate"] = rec.ErrorRate
	values["setup_s"] = median(rec.SetupSeconds)
	list := spec.EndToEnd
	if cfg.trace {
		list = spec.PerLayer
	}
	rec.Metrics = make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names metric %q, which this benchmark does not measure", m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rec, nil
}

// tally counts every op of every phase, warm-up included, into rec: an op
// whose output failed its check is a failed op.
func tally(rec *record, phases []*phase) {
	for _, p := range phases {
		for _, r := range p.results {
			rec.Attempted++
			if r.err != nil {
				rec.Failed++
				if len(rec.Errors) < maxErrors {
					rec.Errors = append(rec.Errors, r.err.Error())
				}
			}
		}
	}
	rec.ErrorRate = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.Correct = rec.Failed == 0
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(v map[string]float64, p *phase, rec *record) {
	n := float64(p.ops())
	v["latency_p50_ms"] = median(p.latencies)
	v["latency_p90_ms"] = percentile(p.latencies, 0.9)
	v["ops_per_s"] = p.rate(func(opResult) int { return 1 })
	v["cells_per_s"] = p.rate(func(r opResult) int { return r.cells })
	v["cpu_ms_per_op"] = float64(p.cpu) / float64(time.Millisecond) / n
	v["peak_rss_mb"] = float64(p.peakRSS) / (1 << 20)
	rec.MaxRSSMB = float64(readUsage().maxRSSK) / 1024
	rec.Samples = p.ops()
	rec.TailPercentile, rec.TailMS, _ = tailPercentile(p.latencies, 10)
	rec.WindowP50MS = p.windowMedians()
}

// windowMedians returns the median latency of the ops that started in
// each of the phase's windows (0 for a window in which none started), so a
// result file shows how steady the machine was during the run.
func (p *phase) windowMedians() []float64 {
	per := make([][]float64, rateWindows)
	for i, t := range p.opTimes {
		if w := int(t[0] / p.window); w < rateWindows {
			per[w] = append(per[w], p.latencies[i])
		}
	}
	out := make([]float64, rateWindows)
	for w, l := range per {
		if len(l) > 0 {
			out[w] = median(l)
		}
	}
	return out
}

// rate is the median over the phase's windows of f's per-second rate. An
// op counts in each window in proportion to the share of its run time that
// falls in the window, so a window's figure is not rounded to whole ops.
func (p *phase) rate(f func(opResult) int) float64 {
	per := make([]float64, rateWindows)
	for i, r := range p.results {
		begin, end := p.opTimes[i][0], p.opTimes[i][1]
		for w := int(begin / p.window); w < rateWindows && time.Duration(w)*p.window < end; w++ {
			lo, hi := max(begin, time.Duration(w)*p.window), min(end, time.Duration(w+1)*p.window)
			share := 1.0
			if end > begin {
				share = float64(hi-lo) / float64(end-begin)
			}
			per[w] += share * float64(f(r))
		}
	}
	for i := range per {
		per[i] /= p.window.Seconds()
	}
	return median(per)
}

func sum[T int | time.Duration](rs []opResult, f func(opResult) T) T {
	var total T
	for _, r := range rs {
		total += f(r)
	}
	return total
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the per-layer metrics. Counters the program exports come
// from the untraced half a; span times and evaluation stats from the traced
// half b. Times and counts are per op unless the name says otherwise.
func perLayer(v map[string]float64, a, b *phase, spans map[string]layerTime, draws float64) {
	na, nb := float64(a.ops()), float64(b.ops())

	caches, kernel := a.caches, a.kernel
	est := caches.Estimates
	v["memo.estimate_hits"] = float64(est.Hits) / na
	v["memo.estimate_misses"] = float64(est.Misses) / na
	v["memo.estimate_hit_ratio"] = est.HitRatio()
	v["memo.estimate_evictions"] = float64(est.Evictions) / na
	v["memo.degree_hits"] = float64(caches.Degrees.Hits) / na
	v["memo.degree_misses"] = float64(caches.Degrees.Misses) / na
	v["partition.kernel_s"] = kernel.Seconds() / na
	v["partition.batch_passes"] = float64(caches.KernelBatches) / na
	v["partition.batch_keys"] = float64(caches.KernelBatchKeys) / na
	v["partition.single_computes"] = float64(caches.KernelSingles) / na
	v["partition.draws_per_s"] = draws

	v["runtime.alloc_mb_per_op"] = float64(a.allocs) / (1 << 20) / na
	v["runtime.gc_cycles_per_op"] = float64(a.gcs) / na

	reqs := sum(a.results, func(r opResult) int { return boolInt(r.reqBytes > 0) })
	v["serve.request_bytes"] = ratio(float64(sum(a.results, func(r opResult) int { return r.reqBytes })), float64(reqs))
	v["serve.response_bytes"] = ratio(float64(sum(a.results, func(r opResult) int { return r.respBytes })), float64(reqs))
	v["serve.non_200"] = float64(sum(a.results, func(r opResult) int { return boolInt(r.non200) })) / na
	v["serve.shed"], v["serve.coalesced"] = 0, 0
	if a.server != nil {
		v["serve.shed"] = float64(a.server.Shed) / na
		v["serve.coalesced"] = float64(a.server.Coalesced) / na
	}

	sec := func(name string) float64 { return spans[name].Self / nb }
	build := spans["registry.build"]
	v["registry.build_s"] = build.Total / nb
	v["registry.builds"] = float64(build.Count) / nb
	v["registry.build_ms_per_cell"] = 1000 * ratio(build.Total, float64(build.Count))
	v["memo.fingerprint_s"] = sec("memo.fingerprint")
	v["memo.fingerprint_share_of_build"] = ratio(spans["memo.fingerprint"].Total, build.Total)
	v["graph.gen_s"] = sec("graph.degrees")
	probeKernel := sum(b.results, func(r opResult) time.Duration { return r.probe.kernel })
	v["core.sample_s"] = spans["core.sample"].Total / nb
	v["core.sample_self_s"] = (spans["core.sample"].Total - probeKernel.Seconds()) / nb
	v["scenario.expand_s"] = sec("scenario.expand")
	v["scenario.encode_s"] = sec("scenario.encode")
	v["scenario.output_bytes"] = float64(sum(b.results, func(r opResult) int { return r.outBytes })) / nb
	v["planner.plan_s"] = spans["planner.plan"].Total / nb
	if rt, ok := spans["serve.roundtrip"]; ok && rt.Count > 0 {
		v["serve.overhead_ms_per_req"] = 1000 * (rt.Total - spans["inproc"].Total) / float64(rt.Count)
	} else {
		v["serve.overhead_ms_per_req"] = 0
	}

	var evaluated, deduped, failed, retried, pruned, refined, cells, frontier int
	var bound, refine time.Duration
	for _, r := range b.results {
		if st := r.stats; st != nil {
			evaluated += st.Evaluated
			deduped += st.CurvesDeduped
			failed += st.Failed
			retried += st.Retried
			pruned += st.Pruned
			refined += st.Refined
			cells += st.Scenarios
			bound += st.BoundTime
			refine += st.RefineTime
			frontier += r.frontier
		}
	}
	v["core.cells_evaluated"] = float64(evaluated) / nb
	v["core.cells_deduped"] = float64(deduped) / nb
	v["core.cells_failed"] = float64(failed) / nb
	v["core.retried"] = float64(retried) / nb
	v["planner.bound_s"] = bound.Seconds() / nb
	v["planner.refine_s"] = refine.Seconds() / nb
	v["planner.cells_pruned"] = float64(pruned) / nb
	v["planner.cells_refined"] = float64(refined) / nb
	v["planner.eval_share"] = ratio(float64(evaluated), float64(cells))
	v["planner.frontier_yield"] = ratio(float64(frontier), float64(evaluated))

	v["bench.trace_overhead"] = ratio(median(b.latencies), median(a.latencies)) - 1
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// drawRate times one direct batched kernel call per graph on the workloads'
// own degrees and 64-point axis with 3 trials, and returns vertex draws per
// second (one draw per vertex per trial). 0 when the workload has no graph.
func drawRate(ctx context.Context, graphs []registry.GraphSpec) (float64, error) {
	var draws float64
	var spent time.Duration
	axis := core.Range(1, serveWorkers)
	for _, g := range graphs {
		degrees, err := registry.GraphDegreesCtx(ctx, g)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := partition.MonteCarloMaxEdgesBatch(ctx, degrees, axis, 3, 1); err != nil {
			return 0, err
		}
		spent += time.Since(t0)
		draws += 3 * float64(len(degrees))
	}
	if spent == 0 {
		return 0, nil
	}
	return draws / spent.Seconds(), nil
}
