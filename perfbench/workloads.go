package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/serve"
)

// workload is one named traffic shape. setup is timed and may run several
// times per run; each call replaces what the previous one built.
type workload interface {
	setup(ctx context.Context, seed int64) error
	// clients is the closed loop's client count.
	clients() int
	// parallelism is the core parallelism budget the measured ops run
	// under (core.SetParallelism; 0 means GOMAXPROCS). Set-up always runs
	// under the default.
	parallelism() int
	// op runs operation i and checks its output. A non-nil tr
	// asks for the traced form: spans around each layer call plus a
	// per-layer probe of the same input.
	op(ctx context.Context, i int, tr *tracer) opResult
	// graphs lists the graph specs the workload's ops sample, for the
	// direct kernel timing of a traced run.
	graphs() []registry.GraphSpec
	close()
}

// opResult is one checked operation.
type opResult struct {
	cells int
	err   error
	// stats is the op's in-process evaluation stats, when it has one.
	stats    *scenario.EvalStats
	frontier int
	outBytes int
	// reqBytes, respBytes and non200 describe an HTTP round trip.
	reqBytes, respBytes int
	non200              bool
	probe               probeTotals
}

var workloads = map[string]func() workload{
	"serve-whatif-warm":  func() workload { return &serveWorkload{} },
	"sweep-graph-cold":   func() workload { return &sweepWorkload{} },
	"plan-grid-adaptive": func() workload { return &planWorkload{} },
}

// decodeSuite decodes a suite document through the strict decoder the
// CLIs and the server use.
func decodeSuite(doc []byte) (scenario.Suite, error) {
	return scenario.DecodeSuite(bytes.NewReader(doc))
}

// serveWorkload is a closed loop of two HTTP clients against an in-process
// dmls-serve handler on loopback, over what-ifs of three pre-warmed graphs.
type serveWorkload struct {
	reqs  []request
	refs  [][]byte
	specs []registry.GraphSpec

	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
}

// serveClients is the closed loop's load: two client goroutines with a
// connection each, in the benchmark's own process.
const serveClients = 2

func (w *serveWorkload) clients() int                 { return serveClients }
func (w *serveWorkload) parallelism() int             { return 0 }
func (w *serveWorkload) graphs() []registry.GraphSpec { return w.specs }

func (w *serveWorkload) setup(ctx context.Context, seed int64) error {
	w.close()
	reqs, err := serveRequests(seed, servePool)
	if err != nil {
		return err
	}
	w.reqs, w.specs = reqs, nil
	// Prewarm: generate each graph and fill its 64 kernel estimates, so
	// every request afterwards is answered from the caches.
	for _, g := range serveGraphs(seed) {
		w.specs = append(w.specs, *g.Workload.Graph)
		if _, err := evaluate(ctx, nil, 0, 0, query{route: "sweep"}, scenario.Suite{Name: "prewarm", Scenarios: []scenario.Scenario{g}}); err != nil {
			return fmt.Errorf("prewarm %s: %w", g.Name, err)
		}
	}
	w.refs = make([][]byte, len(reqs))
	for i, r := range reqs {
		suite, err := decodeSuite(r.Suite)
		if err != nil {
			return err
		}
		out, err := evaluate(ctx, nil, 0, 0, r.query(), suite)
		if err != nil {
			return fmt.Errorf("reference for request %d: %w", i, err)
		}
		w.refs[i] = out.bytes
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{Addr: ln.Addr().String()})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	w.url = "http://" + ln.Addr().String() + "/v1/"
	return nil
}

func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	w.srv.Close()
	w.hs = nil
}

// metrics snapshots the server's counters.
func (w *serveWorkload) metrics() serve.Metrics {
	return w.srv.Metrics()
}

func (w *serveWorkload) op(ctx context.Context, i int, tr *tracer) opResult {
	k := i % len(w.reqs)
	r := w.reqs[k]
	root := tr.start("op", 0, i)
	defer tr.end(root)
	res := opResult{cells: r.Cells, reqBytes: len(r.Body)}
	var body []byte
	status := 0
	err := tr.timed("serve.roundtrip", root, i, func() error {
		resp, err := w.client.Post(w.url+r.Route, "application/json", bytes.NewReader(r.Body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		return err
	})
	res.respBytes = len(body)
	switch {
	case err != nil:
		res.err = err
	case status != http.StatusOK:
		res.non200 = true
		res.err = fmt.Errorf("%s request %d: status %d: %.200s", r.Route, k, status, body)
	case !bytes.Equal(body, w.refs[k]):
		res.err = fmt.Errorf("%s request %d: served bytes differ from the offline reference", r.Route, k)
	}
	if tr == nil || res.err != nil {
		return res
	}
	// Traced: answer the same request in process (the server's evaluation
	// and encode without HTTP), then probe it layer by layer.
	suite, err := decodeSuite(r.Suite)
	if err != nil {
		res.err = err
		return res
	}
	inproc := tr.start("inproc", root, i)
	out, err := evaluate(ctx, tr, inproc, i, r.query(), suite)
	tr.end(inproc)
	if err == nil && !bytes.Equal(out.bytes, w.refs[k]) {
		err = fmt.Errorf("%s request %d: in-process bytes differ from the reference", r.Route, k)
	}
	if err != nil {
		res.err = err
		return res
	}
	res.stats, res.outBytes = statsOf(out), len(out.bytes)
	res.frontier = out.frontierN
	res.probe, res.err = probe(ctx, tr, root, i, suite, out.evaluated)
	return res
}

// statsOf copies the evaluation stats out of out, so a kept opResult does
// not keep the op's whole output alive.
func statsOf(out evalOut) *scenario.EvalStats {
	st := out.stats
	return &st
}

// probe runs the per-layer probe of one op under a "probe" span.
func probe(ctx context.Context, tr *tracer, root, op int, suite scenario.Suite, evaluated []scenario.Scenario) (probeTotals, error) {
	id := tr.start("probe", root, op)
	defer tr.end(id)
	if _, err := probeExpand(tr, id, op, suite); err != nil {
		return probeTotals{}, err
	}
	return probeCells(ctx, tr, id, op, evaluated)
}

// sweepWorkload is what `dmls-sweep -parallel 1 -format json` does in a
// fresh process: cold caches, one seeded 12-cell graph sweep, the JSON
// export. Two clients run such sweeps side by side, one per CPU, and start
// each round of ops together: the caches are process-wide, so the last
// client to arrive resets them while no sweep is running (see roundGate).
// Both CPUs then run independent serial work instead of one sweep forking
// across them and waiting on the slower, which made the run-to-run spread
// of latency three times as wide on a shared 2-CPU host.
type sweepWorkload struct {
	suites [][]byte
	refs   [][]byte
	specs  []registry.GraphSpec
	gate   *roundGate

	// mu guards the registry counters the rounds' resets zeroed.
	mu     sync.Mutex
	caches registry.CacheStats
	kernel time.Duration
}

// sweepClients is the cold-sweep loop's client count: one per CPU of the
// 2-CPU machine the benchmark was tuned on.
const sweepClients = 2

func (w *sweepWorkload) clients() int                 { return sweepClients }
func (w *sweepWorkload) parallelism() int             { return 1 }
func (w *sweepWorkload) graphs() []registry.GraphSpec { return w.specs }
func (w *sweepWorkload) close()                       {}
func (w *sweepWorkload) join(clients int)             { w.gate.join(clients) }
func (w *sweepWorkload) leave()                       { w.gate.leave() }

// counters returns the registry counters accumulated since set-up,
// including what each round's reset zeroed.
func (w *sweepWorkload) counters() (registry.CacheStats, time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return cacheAdd(w.caches, registry.SnapshotCaches(), 1), w.kernel + registry.KernelComputeTime()
}

// reset empties the registry's caches between rounds, keeping the counts
// the reset zeroes.
func (w *sweepWorkload) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.caches = cacheAdd(w.caches, registry.SnapshotCaches(), 1)
	w.kernel += registry.KernelComputeTime()
	registry.ResetCaches()
}

func (w *sweepWorkload) setup(ctx context.Context, seed int64) error {
	suites, err := sweepSuites(seed, sweepPool)
	if err != nil {
		return err
	}
	w.suites, w.refs, w.specs = suites, make([][]byte, len(suites)), nil
	// The reference is the same sweep at the default parallelism: every
	// output is bit-identical at any parallelism, so the serial ops must
	// match it.
	for i, doc := range suites {
		suite, err := decodeSuite(doc)
		if err != nil {
			return err
		}
		w.specs = append(w.specs, *suite.Sweep.Base.Workload.Graph)
		registry.ResetCaches()
		out, err := evaluate(ctx, nil, 0, 0, query{route: "sweep", format: "json"}, suite)
		if err != nil {
			return fmt.Errorf("reference for suite %d: %w", i, err)
		}
		w.refs[i] = out.bytes
	}
	registry.ResetCaches()
	w.caches, w.kernel = registry.CacheStats{}, 0
	w.gate = newRoundGate(w.reset)
	return nil
}

// op runs suite 2r+slot of the pool in round r, so the two sweeps of a
// round have the same vertex count and finish at about the same time.
func (w *sweepWorkload) op(ctx context.Context, i int, tr *tracer) opResult {
	round, slot := w.gate.arrive()
	k := (2*round + slot) % len(w.suites)
	root := tr.start("op", 0, i)
	defer tr.end(root)
	var res opResult
	suite, err := decodeSuite(w.suites[k])
	if err != nil {
		res.err = err
		return res
	}
	out, err := evaluate(ctx, tr, root, i, query{route: "sweep", format: "json"}, suite)
	res.cells, res.stats, res.outBytes = out.cells, statsOf(out), len(out.bytes)
	switch {
	case err != nil:
		res.err = err
	case !bytes.Equal(out.bytes, w.refs[k]):
		res.err = fmt.Errorf("sweep %d: output differs from its full-parallelism reference", k)
	}
	if tr == nil || res.err != nil {
		return res
	}
	// The probe replays the sweep cold too, so graph generation and the
	// kernel show up in its spans.
	w.gate.arrive()
	res.probe, res.err = probe(ctx, tr, root, i, suite, out.evaluated)
	return res
}

// roundGate starts the ops of a closed loop's clients in rounds: each
// client arrives before its op, and the last of the live clients to arrive
// runs release, then lets the round start. release therefore never runs
// while a client is inside an op.
type roundGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	live    int // clients still looping
	waiting int // clients arrived for the open round
	round   int // rounds released so far
	release func()
}

func newRoundGate(release func()) *roundGate {
	g := &roundGate{release: release}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// join starts a phase of clients clients.
func (g *roundGate) join(clients int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.live, g.waiting = clients, 0
}

// leave says a client stopped looping; a round it would have completed
// starts without it.
func (g *roundGate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.live--
	if g.waiting > 0 && g.waiting >= g.live {
		g.start()
	}
}

// arrive waits for the round to start and returns its number and this
// client's arrival order within it.
func (g *roundGate) arrive() (round, slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	round, slot = g.round, g.waiting
	g.waiting++
	if g.waiting >= g.live {
		g.start()
		return round, slot
	}
	for g.round == round {
		g.cond.Wait()
	}
	return round, slot
}

func (g *roundGate) start() {
	g.release()
	g.waiting = 0
	g.round++
	g.cond.Broadcast()
}

// planClients is the planning loop's client count: one per CPU of the
// 2-CPU machine the benchmark was tuned on.
const planClients = 2

// planQuery is `dmls-plan -adaptive -refine 2`, rendered as the ranked
// table (the CSV export: the recommendations without the curves).
var planQuery = query{route: "plan", opts: planner.Options{Prune: true, RefineRounds: 2}, format: "csv"}

// planWorkload is `dmls-plan -adaptive -refine 2 -parallel 1` on seeded
// analytic gradient-descent grids: no graph families, so no kernel and no
// cache. Two clients each plan serially, so both CPUs stay busy with
// independent work instead of one plan forking across them and waiting on
// the slower, which made the run-to-run spread of latency several times as
// wide on a shared 2-CPU host.
type planWorkload struct {
	suites    [][]byte
	frontiers [][]byte
}

func (w *planWorkload) clients() int                 { return planClients }
func (w *planWorkload) parallelism() int             { return 1 }
func (w *planWorkload) graphs() []registry.GraphSpec { return nil }
func (w *planWorkload) close()                       {}

// setup plans each grid adaptively once to learn the refined cells, then
// plans the grid plus those cells exhaustively: that frontier is the
// reference every pruned op must reproduce.
func (w *planWorkload) setup(ctx context.Context, seed int64) error {
	suites, err := planSuites(seed, planPool)
	if err != nil {
		return err
	}
	w.suites, w.frontiers = suites, make([][]byte, len(suites))
	for i, doc := range suites {
		suite, err := decodeSuite(doc)
		if err != nil {
			return err
		}
		report, _, err := planner.PlanSuiteCtx(ctx, suite, "", 0, planQuery.opts)
		if err != nil {
			return err
		}
		full := scenario.Suite{Name: suite.Name, Objective: suite.Objective}
		if full.Scenarios, err = suite.Expand(); err != nil {
			return err
		}
		for _, p := range report.Plans {
			if p.Refined {
				full.Scenarios = append(full.Scenarios, p.Scenario)
			}
		}
		out, err := evaluate(ctx, nil, 0, 0, query{route: "plan"}, full)
		if err != nil {
			return fmt.Errorf("exhaustive reference for grid %d: %w", i, err)
		}
		w.frontiers[i] = out.frontier
	}
	return nil
}

func (w *planWorkload) op(ctx context.Context, i int, tr *tracer) opResult {
	k := i % len(w.suites)
	root := tr.start("op", 0, i)
	defer tr.end(root)
	var res opResult
	suite, err := decodeSuite(w.suites[k])
	if err != nil {
		res.err = err
		return res
	}
	out, err := evaluate(ctx, tr, root, i, planQuery, suite)
	res.cells, res.stats, res.outBytes = out.cells, statsOf(out), len(out.bytes)
	res.frontier = out.frontierN
	switch {
	case err != nil:
		res.err = err
	case !bytes.Equal(out.frontier, w.frontiers[k]):
		res.err = fmt.Errorf("plan %d: pruned frontier differs from the exhaustive frontier", k)
	}
	if tr == nil || res.err != nil {
		return res
	}
	res.probe, res.err = probe(ctx, tr, root, i, suite, out.evaluated)
	return res
}
