// Package serve exposes the evaluation and planning engines as a hardened
// HTTP/JSON service: POST /v1/sweep and /v1/plan accept the same suite
// documents the CLIs read and return the same JSON exports byte-for-byte,
// so a request against a running server and an offline dmls-plan invocation
// over the same suite are interchangeable evidence.
//
// Robustness is the point, not an afterthought:
//
//   - Admission control: at most MaxInFlight evaluation requests run at
//     once; excess load is shed immediately with 429 and Retry-After
//     instead of queueing until every request misses its deadline.
//   - Per-request deadlines: every evaluation runs under a context with a
//     deadline (the request's own, clamped to MaxDeadline, defaulting to
//     DefaultDeadline), threaded through the whole engine down to the
//     Monte-Carlo trial loop; expiry returns 504 with no goroutine or
//     budget slot left behind.
//   - Oversized grids are rejected 4xx from catalog arithmetic alone,
//     before any model is built.
//   - Panic containment: a panicking request becomes a structured 500 and
//     the server keeps serving.
//   - Graceful drain: Run stops accepting, lets in-flight requests finish
//     for DrainTimeout, then cancels their contexts and closes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// Config sizes the server's robustness envelope. The zero value is usable:
// every field has a production-shaped default.
type Config struct {
	// Addr is the listen address; default ":8080".
	Addr string
	// DefaultDeadline bounds requests that name no deadline of their own;
	// default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines; default 2m.
	MaxDeadline time.Duration
	// MaxInFlight caps concurrently evaluating requests; excess sheds with
	// 429. Default 8.
	MaxInFlight int
	// MaxCells rejects suites expanding past this many grid cells before
	// any model work; default 4096.
	MaxCells int
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// shutdown begins before cancelling their contexts; default 10s.
	DrainTimeout time.Duration
	// AccessLog, when non-nil, receives one structured JSON line per
	// evaluation request: trace id, status, duration and the evaluation's
	// phase breakdown (build/sample/plan/kernel time). Writes are
	// serialized; nil disables access logging.
	AccessLog io.Writer
	// Breaker sizes the per-route kernel circuit breakers; zero-value
	// fields take BreakerConfig's defaults.
	Breaker BreakerConfig
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Metrics is the counter snapshot /metrics reports. All counters are
// monotone since process start.
type Metrics struct {
	UptimeSeconds   float64             `json:"uptime_seconds"`
	Requests        int64               `json:"requests_total"`
	Sweeps          int64               `json:"sweeps_total"`
	Plans           int64               `json:"plans_total"`
	Shed            int64               `json:"shed_total"`
	Coalesced       int64               `json:"coalesced_total"`
	BadRequests     int64               `json:"bad_requests_total"`
	DeadlineExpired int64               `json:"deadline_expired_total"`
	ClientGone      int64               `json:"client_gone_total"`
	Panics          int64               `json:"panics_total"`
	Retries         int64               `json:"retries_total"`
	DegradedPlans   int64               `json:"degraded_plans_total"`
	DegradedShed    int64               `json:"degraded_shed_total"`
	BreakerSweep    string              `json:"breaker_sweep"`
	BreakerPlan     string              `json:"breaker_plan"`
	InFlight        int64               `json:"in_flight"`
	Draining        bool                `json:"draining"`
	Parallelism     int                 `json:"parallelism"`
	Caches          registry.CacheStats `json:"caches"`
}

// Server is the planning service. Construct with New, mount Handler on any
// mux or listener, or let Run own the listen/drain lifecycle.
type Server struct {
	cfg Config

	// baseCtx parents every request context; cancelling it is the drain
	// deadline's hard stop for in-flight evaluations.
	baseCtx context.Context
	cancel  context.CancelFunc

	// sem admits at most MaxInFlight evaluation requests.
	sem chan struct{}

	draining  atomic.Bool
	start     time.Time
	boundAddr atomic.Pointer[string]

	// set registers every counter, histogram and gauge below for the
	// Prometheus exposition of GET /metrics; the legacy JSON snapshot reads
	// the same instruments, so the two formats can never disagree.
	set             *obs.Set
	requests        *obs.Counter
	sweeps          *obs.Counter
	plans           *obs.Counter
	shed            *obs.Counter
	coalescedTotal  *obs.Counter
	badRequests     *obs.Counter
	deadlineExpired *obs.Counter
	clientGone      *obs.Counter
	panics          *obs.Counter
	retries         *obs.Counter
	degradedPlans   *obs.Counter
	degradedShed    *obs.Counter
	inFlight        atomic.Int64

	// breakerSweep/breakerPlan gate each route's kernel-backed path; while
	// open, /v1/plan degrades to bound-model answers and /v1/sweep sheds.
	breakerSweep *Breaker
	breakerPlan  *Breaker

	// coal single-flights identical in-flight /v1/sweep and /v1/plan
	// requests: followers share the leader's 200 reply instead of
	// re-evaluating.
	coal coalescer

	durSweep   *obs.Histogram
	durPlan    *obs.Histogram
	cellsSweep *obs.Histogram
	cellsPlan  *obs.Histogram

	accessLog io.Writer
	logMu     sync.Mutex

	mux *http.ServeMux
}

// New builds a server from cfg (zero-value fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		baseCtx:   ctx,
		cancel:    cancel,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		start:     time.Now(),
		accessLog: cfg.AccessLog,
		mux:       http.NewServeMux(),
	}
	s.breakerSweep = NewBreaker(cfg.Breaker, nil)
	s.breakerPlan = NewBreaker(cfg.Breaker, nil)
	s.coal.inflight = make(map[string]*coalesceEntry)
	s.registerMetrics()
	s.mux.Handle("POST /v1/sweep", s.contained("sweep", s.coalesce("sweep", s.handleSweep)))
	s.mux.Handle("POST /v1/plan", s.contained("plan", s.coalesce("plan", s.handlePlan)))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// registerMetrics builds the server's instrument set: the legacy JSON
// counters, per-route request-duration and cells-evaluated histograms, and
// scrape-time gauges over server and kernel-cache state.
func (s *Server) registerMetrics() {
	s.set = obs.NewSet()
	s.requests = s.set.NewCounter("dmls_requests_total", "Evaluation requests received (sweep and plan), including shed and rejected ones.")
	s.sweeps = s.set.NewCounter("dmls_sweeps_total", "Sweep requests answered successfully.")
	s.plans = s.set.NewCounter("dmls_plans_total", "Plan requests answered successfully.")
	s.shed = s.set.NewCounter("dmls_shed_total", "Requests shed with 429 at admission because MaxInFlight was reached.")
	s.coalescedTotal = s.set.NewCounter("dmls_coalesced_total", "Requests answered by replaying an identical in-flight request's 200 response (single-flight coalescing).")
	s.badRequests = s.set.NewCounter("dmls_bad_requests_total", "Requests rejected 4xx for malformed bodies, oversized grids or invalid knobs.")
	s.deadlineExpired = s.set.NewCounter("dmls_deadline_expired_total", "Evaluations that hit their per-request deadline (504).")
	s.clientGone = s.set.NewCounter("dmls_client_gone_total", "Evaluations cancelled by client disconnect or drain hard-stop.")
	s.panics = s.set.NewCounter("dmls_panics_total", "Requests that panicked and were contained as 500s.")
	s.retries = s.set.NewCounter("dmls_retries_total", "Transient-fault retries performed on behalf of served requests (cell and kernel layer).")
	s.degradedPlans = s.set.NewCounter("dmls_degraded_plans_total", "Plan requests answered in degraded kernel-free bound mode while the breaker was open.")
	s.degradedShed = s.set.NewCounter("dmls_degraded_shed_total", "Sweep requests shed 503 because the kernel circuit breaker was open.")

	dur := "Evaluation request wall time in seconds, by route."
	s.durSweep = s.set.NewHistogram("dmls_request_duration_seconds", dur, obs.DurationBuckets(), obs.Label{Key: "route", Value: "sweep"})
	s.durPlan = s.set.NewHistogram("dmls_request_duration_seconds", dur, obs.DurationBuckets(), obs.Label{Key: "route", Value: "plan"})
	cells := "Grid cells expanded per evaluated request, by route."
	s.cellsSweep = s.set.NewHistogram("dmls_request_cells", cells, obs.CountBuckets(), obs.Label{Key: "route", Value: "sweep"})
	s.cellsPlan = s.set.NewHistogram("dmls_request_cells", cells, obs.CountBuckets(), obs.Label{Key: "route", Value: "plan"})

	s.set.NewGauge("dmls_in_flight", "Evaluation requests currently executing.", func() float64 { return float64(s.inFlight.Load()) })
	breakerState := "Kernel circuit breaker state by route: 0 closed, 1 open, 2 half-open."
	s.set.NewGauge("dmls_breaker_state", breakerState, func() float64 { return float64(s.breakerSweep.State()) }, obs.Label{Key: "route", Value: "sweep"})
	s.set.NewGauge("dmls_breaker_state", breakerState, func() float64 { return float64(s.breakerPlan.State()) }, obs.Label{Key: "route", Value: "plan"})
	s.set.NewGauge("dmls_draining", "1 once graceful shutdown has begun, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	s.set.NewGauge("dmls_uptime_seconds", "Seconds since the server was constructed.", func() float64 { return time.Since(s.start).Seconds() })
	s.set.NewGauge("dmls_parallelism", "Worker slots in the process-wide evaluation budget.", func() float64 { return float64(core.Parallelism()) })
	s.set.NewGauge("dmls_kernel_compute_seconds_total", "Cumulative seconds spent computing Monte-Carlo kernels (cache misses only).", func() float64 { return registry.KernelComputeTime().Seconds() })
	cacheGauge := func(pick func(registry.CacheStats) float64) func() float64 {
		return func() float64 { return pick(registry.SnapshotCaches()) }
	}
	s.set.NewGauge("dmls_kernel_cache_hit_ratio", "Monte-Carlo estimate cache hit ratio since process start (0 when unused).", cacheGauge(func(cs registry.CacheStats) float64 { return cs.Estimates.HitRatio() }))
	s.set.NewGauge("dmls_graph_cache_hit_ratio", "Materialized-graph cache hit ratio since process start (0 when unused).", cacheGauge(func(cs registry.CacheStats) float64 { return cs.Graphs.HitRatio() }))
	s.set.NewGauge("dmls_kernel_cache_entries", "Entries resident in the Monte-Carlo estimate cache.", cacheGauge(func(cs registry.CacheStats) float64 { return float64(cs.Estimates.Entries) }))
}

// Handler returns the server's routes, each wrapped in panic containment.
func (s *Server) Handler() http.Handler {
	return s.mux
}

// Close cancels the server's base context, aborting any in-flight
// evaluations. Run calls it as the drain deadline's hard stop; tests call
// it directly.
func (s *Server) Close() {
	s.cancel()
}

// Metrics snapshots the counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Value(),
		Sweeps:          s.sweeps.Value(),
		Plans:           s.plans.Value(),
		Shed:            s.shed.Value(),
		Coalesced:       s.coalescedTotal.Value(),
		BadRequests:     s.badRequests.Value(),
		DeadlineExpired: s.deadlineExpired.Value(),
		ClientGone:      s.clientGone.Value(),
		Panics:          s.panics.Value(),
		Retries:         s.retries.Value(),
		DegradedPlans:   s.degradedPlans.Value(),
		DegradedShed:    s.degradedShed.Value(),
		BreakerSweep:    breakerStateName(s.breakerSweep.State()),
		BreakerPlan:     breakerStateName(s.breakerPlan.State()),
		InFlight:        s.inFlight.Load(),
		Draining:        s.draining.Load(),
		Parallelism:     core.Parallelism(),
		Caches:          registry.SnapshotCaches(),
	}
}

// BreakerFor returns the route's kernel circuit breaker ("sweep" or
// "plan") — the handle chaos drills and tests use to force or inspect
// state. Nil for unknown routes.
func (s *Server) BreakerFor(route string) *Breaker {
	switch route {
	case "sweep":
		return s.breakerSweep
	case "plan":
		return s.breakerPlan
	}
	return nil
}

// retryAfter derives the Retry-After value for a shed response from the
// route's live latency distribution: the p50 request duration, rounded up
// to whole seconds, floored at 1s. A client that waits one median request
// time has real odds of finding a free slot; before any traffic exists the
// histogram is empty and the floor answers.
func (s *Server) retryAfter(route string) string {
	var h *obs.Histogram
	switch route {
	case "sweep":
		h = s.durSweep
	case "plan":
		h = s.durPlan
	}
	secs := 1.0
	if h != nil {
		if p50 := h.Snapshot().Quantile(0.5); p50 > 0 {
			secs = math.Ceil(p50)
		}
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(int(secs))
}

// Addr returns the bound listen address once Run has opened its listener
// ("" before that) — the actual port when cfg.Addr asked for :0.
func (s *Server) Addr() string {
	if p := s.boundAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains:
// stop accepting, let in-flight requests finish for DrainTimeout, cancel
// their contexts, close. It returns nil after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.cancel()
		return err
	}
	addr := ln.Addr().String()
	s.boundAddr.Store(&addr)
	srv := &http.Server{
		Handler: s.Handler(),
		BaseContext: func(net.Listener) context.Context {
			return s.baseCtx
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.cancel()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	// Whether the drain was clean or timed out, in-flight evaluations must
	// not outlive the process: cancel their base context, then close.
	s.cancel()
	srv.Close()
	<-errc // ListenAndServe has returned http.ErrServerClosed
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// apiError is the structured error body every non-200 response carries.
type apiError struct {
	Error string `json:"error"`
}

// reply is an evaluation request's answer: what the client receives and
// what the observation layer records. Every reply body is JSON.
type reply struct {
	status int
	body   []byte
	// retryAfter, when set, is sent as the Retry-After header.
	retryAfter string
	// stats are the evaluation's figures; nil when no evaluation ran for
	// this request (rejected, shed, or answered by a coalesced leader), so
	// per-evaluation counters count each evaluation once.
	stats *scenario.EvalStats
}

// evalHandler answers one admitted evaluation request from its raw body.
type evalHandler func(ctx context.Context, raw []byte) reply

// errorReply builds a structured error reply.
func errorReply(status int, format string, args ...any) reply {
	body, _ := json.Marshal(apiError{Error: fmt.Sprintf(format, args...)}) // a one-string struct always marshals
	return reply{status: status, body: append(body, '\n')}
}

// badRequest counts and builds the 400 for a request the server cannot
// evaluate.
func (s *Server) badRequest(route string, err error) reply {
	s.badRequests.Inc()
	return errorReply(http.StatusBadRequest, "bad %s request: %v", route, err)
}

// contained turns an evaluation handler into an http.Handler inside the
// shared robustness and observability layers: request counting, admission
// control, panic containment, trace propagation (an incoming W3C
// traceparent is honored, otherwise a fresh trace id is minted; either way
// the response carries one), per-route latency histograms and the
// structured access log. The body is read once, after admission, under
// maxRequestBytes. Nothing is written until the handler has returned its
// reply, so a panic anywhere in decode or evaluation turns into a clean
// structured 500 — never a half-written 200.
func (s *Server) contained(route string, h evalHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			trace = obs.NewTraceID()
		}
		w.Header().Set("Traceparent", obs.FormatTraceparent(trace, obs.NewSpanID()))
		var rep reply
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				rep = errorReply(http.StatusInternalServerError, "internal: request panicked: %v", v)
			}
			w.Header().Set("Content-Type", "application/json")
			if rep.retryAfter != "" {
				w.Header().Set("Retry-After", rep.retryAfter)
			}
			w.WriteHeader(rep.status)
			w.Write(rep.body)
			s.observeRequest(r, route, trace, rep, time.Since(start))
		}()
		s.requests.Inc()
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			rep = errorReply(http.StatusTooManyRequests, "server at capacity (%d requests in flight); retry", s.cfg.MaxInFlight)
			rep.retryAfter = s.retryAfter(route)
			return
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			<-s.sem
		}()
		raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
		if err != nil {
			rep = s.badRequest(route, fmt.Errorf("read body: %w", err))
			return
		}
		rep = h(obs.WithTrace(r.Context(), trace), raw)
	})
}

// accessEntry is one structured access-log line: request identity, outcome,
// and the evaluation's phase breakdown in milliseconds. Phase fields are
// summed across cells, so under parallel evaluation they legitimately
// exceed duration_ms; kernel_ms attributes (overlaps) the others.
type accessEntry struct {
	Time       string  `json:"time"`
	TraceID    string  `json:"trace_id"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Route      string  `json:"route"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Cells      int     `json:"cells,omitempty"`
	Evaluated  int     `json:"evaluated,omitempty"`
	Deduped    int     `json:"deduped,omitempty"`
	Pruned     int     `json:"pruned,omitempty"`
	Cancelled  int     `json:"cancelled,omitempty"`
	BuildMS    float64 `json:"build_ms,omitempty"`
	SampleMS   float64 `json:"sample_ms,omitempty"`
	PlanMS     float64 `json:"plan_ms,omitempty"`
	BoundMS    float64 `json:"bound_ms,omitempty"`
	RefineMS   float64 `json:"refine_ms,omitempty"`
	KernelMS   float64 `json:"kernel_ms,omitempty"`
	Retried    int     `json:"retried,omitempty"`
	Resumed    int     `json:"resumed,omitempty"`
}

// observeRequest feeds the per-route histograms and, when configured, emits
// one access-log line. Runs after the reply (or its panic recovery) is
// written.
func (s *Server) observeRequest(r *http.Request, route string, trace obs.TraceID, rep reply, elapsed time.Duration) {
	st := rep.stats
	switch route {
	case "sweep":
		s.durSweep.Observe(elapsed.Seconds())
		if st != nil {
			s.cellsSweep.Observe(float64(st.Scenarios))
		}
	case "plan":
		s.durPlan.Observe(elapsed.Seconds())
		if st != nil {
			s.cellsPlan.Observe(float64(st.Scenarios))
		}
	}
	if st != nil && st.Retried > 0 {
		s.retries.Add(int64(st.Retried))
	}
	if s.accessLog == nil {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	entry := accessEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:    trace.String(),
		Method:     r.Method,
		Path:       r.URL.Path,
		Route:      route,
		Status:     rep.status,
		DurationMS: ms(elapsed),
	}
	if st != nil {
		entry.Cells = st.Scenarios
		entry.Evaluated = st.Evaluated
		entry.Deduped = st.CurvesDeduped
		entry.Pruned = st.Pruned
		entry.Cancelled = st.Cancelled
		entry.BuildMS = ms(st.BuildTime)
		entry.SampleMS = ms(st.SampleTime)
		entry.PlanMS = ms(st.PlanTime)
		entry.BoundMS = ms(st.BoundTime)
		entry.RefineMS = ms(st.RefineTime)
		entry.KernelMS = ms(st.KernelComputeTime)
		entry.Retried = st.Retried
		entry.Resumed = st.ResumedCells
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.logMu.Lock()
	s.accessLog.Write(line)
	s.logMu.Unlock()
}

// requestCtx derives the evaluation context: the request's context (itself
// parented on the server's base context, so drain hard-stop and client
// disconnect both propagate) bounded by the effective deadline.
func (s *Server) requestCtx(ctx context.Context, deadline time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadline > 0 {
		d = min(deadline, s.cfg.MaxDeadline)
	}
	return context.WithTimeout(ctx, d)
}

// settle feeds an evaluation's outcome to the route's breaker. A returned
// error — cancellation, deadline expiry, a suite the engine rejected — says
// nothing about kernel health.
func settle(b *Breaker, st scenario.EvalStats, err error) {
	if err != nil {
		b.Cancel()
		return
	}
	b.Record(st.Failed == 0)
}

// outcome maps an evaluation's result onto the wire: 504 for an expired
// per-request deadline, 503 for a vanished client or a drain hard-stop
// (best-effort: the connection is dead or dying), 400 for a suite the
// engine rejected, else the route's counted 200 carrying the export write
// produces. st, when non-nil, rides on every reply but the 400.
func (s *Server) outcome(route string, st *scenario.EvalStats, err error, write func(io.Writer) error) reply {
	var rep reply
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExpired.Inc()
		rep = errorReply(http.StatusGatewayTimeout, "evaluation deadline expired: %v", err)
	case errors.Is(err, context.Canceled):
		s.clientGone.Inc()
		rep = errorReply(http.StatusServiceUnavailable, "evaluation cancelled: %v", err)
	case err != nil:
		// Suite-shape and knob errors the cap check could not see (a bad
		// objective in the suite file, a negative budget) are the client's.
		return s.badRequest(route, err)
	default:
		s.answered(route)
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			what := "plans"
			if route == "sweep" {
				what = "results"
			}
			rep = errorReply(http.StatusInternalServerError, "encode %s: %v", what, err)
		} else {
			rep = reply{status: http.StatusOK, body: buf.Bytes()}
		}
	}
	rep.stats = st
	return rep
}

// answered counts a 200 on the route, whether evaluated or coalesced.
func (s *Server) answered(route string) {
	switch route {
	case "sweep":
		s.sweeps.Inc()
	case "plan":
		s.plans.Inc()
	}
}

// decodeRequest strictly decodes a request body into req, rejecting unknown
// fields and trailing garbage.
func decodeRequest(raw []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// decodeSuite turns the raw suite sub-document into a validated suite and
// enforces the server's grid cap before any model work. The cap check is
// catalog arithmetic on the lazy cell view — an oversized or malformed grid
// never reaches the engine.
func (s *Server) decodeSuite(raw json.RawMessage) (scenario.Suite, error) {
	if len(raw) == 0 {
		return scenario.Suite{}, fmt.Errorf("missing \"suite\"")
	}
	suite, err := scenario.DecodeSuite(bytes.NewReader(raw))
	if err != nil {
		return scenario.Suite{}, err
	}
	cs, err := suite.Cells()
	if err != nil {
		return scenario.Suite{}, err
	}
	if cs.Len() > s.cfg.MaxCells {
		return scenario.Suite{}, fmt.Errorf("suite expands to %d cells, over the server's limit of %d", cs.Len(), s.cfg.MaxCells)
	}
	return suite, nil
}

// SweepRequest is the POST /v1/sweep body: the suite document the CLIs
// read, plus optional per-request knobs.
type SweepRequest struct {
	// Suite is the suite (or single-scenario) document, verbatim.
	Suite json.RawMessage `json:"suite"`
	// Parallelism caps this request's suite-level workers within the shared
	// budget; 0 means no extra cap.
	Parallelism int `json:"parallelism,omitempty"`
	// Deadline bounds the evaluation (Go duration string, e.g. "30s"),
	// clamped to the server's MaxDeadline; empty means DefaultDeadline.
	Deadline string `json:"deadline,omitempty"`
}

// handleSweep evaluates a suite and replies with the exact document
// dmls-sweep -format json writes.
func (s *Server) handleSweep(ctx context.Context, raw []byte) reply {
	var req SweepRequest
	if err := decodeRequest(raw, &req); err != nil {
		return s.badRequest("sweep", err)
	}
	deadline, err := parseDeadline(req.Deadline)
	if err != nil {
		return s.badRequest("sweep", err)
	}
	suite, err := s.decodeSuite(req.Suite)
	if err != nil {
		return s.badRequest("sweep", err)
	}
	if !s.breakerSweep.Allow() {
		// Sweeps have no kernel-free answer: shed with a hint, unlike
		// /v1/plan which degrades to bound estimates.
		s.degradedShed.Inc()
		rep := errorReply(http.StatusServiceUnavailable, "kernel circuit breaker open; sweep unavailable, retry later")
		rep.retryAfter = s.retryAfter("sweep")
		return rep
	}
	ctx, cancel := s.requestCtx(ctx, deadline)
	defer cancel()
	results, st, err := scenario.EvaluateSuiteStatsCtx(ctx, suite, req.Parallelism)
	settle(s.breakerSweep, st, err)
	return s.outcome("sweep", &st, err, func(w io.Writer) error {
		return scenario.WriteResultsJSON(w, suite.Name, results)
	})
}

// PlanRequest is the POST /v1/plan body: the planning suite plus the same
// knobs dmls-plan exposes as flags. MaxTime and MaxTimeSeconds are two
// spellings of one budget — setting both is a conflict, rejected 400.
type PlanRequest struct {
	// Suite is the suite (or single-scenario) document, verbatim.
	Suite json.RawMessage `json:"suite"`
	// Objective overrides the suite's own ranking objective: tta, cost or
	// pareto.
	Objective string `json:"objective,omitempty"`
	// Adaptive prunes cells whose optimistic bound is already dominated
	// (dmls-plan -adaptive).
	Adaptive bool `json:"adaptive,omitempty"`
	// Refine runs this many rounds of frontier refinement (dmls-plan
	// -refine).
	Refine int `json:"refine,omitempty"`
	// MaxCost is the cost budget per run; 0 means unconstrained.
	MaxCost float64 `json:"max_cost,omitempty"`
	// MaxTimeSeconds is the wall-time budget per run, in seconds.
	MaxTimeSeconds float64 `json:"max_time_seconds,omitempty"`
	// MaxTime is the same budget as a Go duration string ("90m", "2h").
	// Conflicts with MaxTimeSeconds.
	MaxTime string `json:"max_time,omitempty"`
	// Parallelism caps this request's suite-level workers within the shared
	// budget; 0 means no extra cap.
	Parallelism int `json:"parallelism,omitempty"`
	// Deadline bounds the planning pass (Go duration string), clamped to
	// the server's MaxDeadline; empty means DefaultDeadline.
	Deadline string `json:"deadline,omitempty"`
}

// options maps the request's planner knobs onto planner.Options. Only the
// wire format is checked here — the two budget spellings and the duration
// syntax; the planner validates the values, for the CLI and the service
// alike.
func (req PlanRequest) options() (planner.Options, error) {
	opts := planner.Options{
		Prune:          req.Adaptive,
		RefineRounds:   req.Refine,
		MaxCost:        req.MaxCost,
		MaxTimeSeconds: req.MaxTimeSeconds,
	}
	if req.MaxTime != "" {
		if req.MaxTimeSeconds != 0 {
			return planner.Options{}, fmt.Errorf("max_time and max_time_seconds both set; pick one")
		}
		d, err := time.ParseDuration(req.MaxTime)
		if err != nil {
			return planner.Options{}, fmt.Errorf("bad max_time: %v", err)
		}
		opts.MaxTimeSeconds = d.Seconds()
	}
	return opts, nil
}

// handlePlan plans a suite and replies with the exact document dmls-plan
// -format json writes, so served and offline plans are byte-comparable.
// While the kernel circuit breaker is open it answers from a kernel-free
// pass over the suite's registry bound models instead, exported in the same
// document shape with "degraded": true so clients know the numbers are
// optimistic lower bounds, not recommendations. Availability over fidelity
// — the route keeps answering while the kernel heals.
func (s *Server) handlePlan(ctx context.Context, raw []byte) reply {
	var req PlanRequest
	if err := decodeRequest(raw, &req); err != nil {
		return s.badRequest("plan", err)
	}
	deadline, err := parseDeadline(req.Deadline)
	if err != nil {
		return s.badRequest("plan", err)
	}
	opts, err := req.options()
	if err != nil {
		return s.badRequest("plan", err)
	}
	suite, err := s.decodeSuite(req.Suite)
	if err != nil {
		return s.badRequest("plan", err)
	}
	ctx, cancel := s.requestCtx(ctx, deadline)
	defer cancel()
	obj := planner.Objective(req.Objective)
	if !s.breakerPlan.Allow() {
		report, err := planner.PlanSuiteDegradedCtx(ctx, suite, obj, req.Parallelism, opts)
		if err == nil {
			s.degradedPlans.Inc()
		}
		return s.outcome("plan", nil, err, plansJSON(report))
	}
	report, st, err := planner.PlanSuiteCtx(ctx, suite, obj, req.Parallelism, opts)
	settle(s.breakerPlan, st, err)
	return s.outcome("plan", &st, err, plansJSON(report))
}

// plansJSON writes a report as the document dmls-plan -format json writes.
func plansJSON(report planner.Report) func(io.Writer) error {
	return func(w io.Writer) error { return scenario.WritePlansJSON(w, report.Export()) }
}

// parseDeadline parses an optional request deadline.
func parseDeadline(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad deadline: %v", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("non-positive deadline %v", d)
	}
	return d, nil
}

// handleHealthz answers liveness probes: "ok" while fully serving, 503
// "draining" once shutdown has begun so load balancers stop routing here,
// and 200 "degraded" while a kernel circuit breaker is open or probing —
// the process is alive and still answering (plans fall back to bound
// estimates), so it must NOT be restarted, but operators should know.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if s.breakerSweep.State() != BreakerClosed || s.breakerPlan.State() != BreakerClosed {
		io.WriteString(w, "degraded\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// handleMetrics serves the instrument set in Prometheus text exposition
// format by default, or the legacy JSON counter snapshot when the client's
// Accept header asks for application/json. Both variants are marked
// no-store: a scrape or dashboard poll must never see a cached snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if acceptsJSON(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	s.set.WritePrometheus(w)
}

// acceptsJSON reports whether an Accept header explicitly asks for JSON
// (application/json or any +json media type). Absent, wildcard or
// Prometheus-style Accept headers fall through to the text exposition.
func acceptsJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "application/json" || strings.HasSuffix(mt, "+json") {
			return true
		}
	}
	return false
}
