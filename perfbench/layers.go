package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/memo"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// evalOut is what one in-process suite answer produced.
type evalOut struct {
	// bytes is the exported JSON document, as the CLIs and the server
	// write it.
	bytes []byte
	stats scenario.EvalStats
	// evaluated lists the cells that built and sampled their own model.
	evaluated []scenario.Scenario
	// frontier is the canonical form of the plan's cost×time frontier
	// (plans only).
	frontier  []byte
	frontierN int
	cells     int
}

// query says how to answer a suite in process.
type query struct {
	// route is "sweep" or "plan".
	route     string
	objective string
	opts      planner.Options
	// parallelism caps the suite-level workers; 0 means no extra cap.
	parallelism int
	// format encodes the answer: "json" (what -format json and the server
	// write), "csv" (the plan's ranked table, without curves) or "" (none).
	format string
}

// evaluate answers a suite in process the way dmls-sweep and dmls-plan do:
// a sweep through scenario.EvaluateSuiteStatsCtx, a plan through
// planner.PlanSuiteCtx, then the export q.format names. Spans cover the
// evaluation and the encode.
func evaluate(ctx context.Context, tr *tracer, parent, op int, q query, suite scenario.Suite) (evalOut, error) {
	var out evalOut
	var buf bytes.Buffer
	encode := func(fn func() error) error {
		if q.format == "" {
			return nil
		}
		return tr.timed("scenario.encode", parent, op, fn)
	}
	switch q.route {
	case "sweep":
		var results []scenario.Result
		err := tr.timed("scenario.evaluate", parent, op, func() (err error) {
			results, out.stats, err = scenario.EvaluateSuiteStatsCtx(ctx, suite, q.parallelism)
			return err
		})
		if err != nil {
			return out, err
		}
		for _, r := range results {
			if r.Err != nil {
				return out, fmt.Errorf("cell %q: %w", r.Scenario.Name, r.Err)
			}
			if !r.Deduped {
				out.evaluated = append(out.evaluated, r.Scenario)
			}
		}
		out.cells = len(results)
		if err := encode(func() error { return scenario.WriteResultsJSON(&buf, suite.Name, results) }); err != nil {
			return out, err
		}
	case "plan":
		obj, err := planner.ParseObjective(q.objective)
		if err != nil {
			return out, err
		}
		if q.objective == "" {
			obj = "" // the suite's own objective
		}
		var report planner.Report
		err = tr.timed("planner.plan", parent, op, func() (err error) {
			report, out.stats, err = planner.PlanSuiteCtx(ctx, suite, obj, q.parallelism, q.opts)
			return err
		})
		if err != nil {
			return out, err
		}
		for _, p := range report.Plans {
			if p.Err != nil {
				return out, fmt.Errorf("plan %q: %w", p.Scenario.Name, p.Err)
			}
			if !p.Pruned {
				out.evaluated = append(out.evaluated, p.Scenario)
			}
		}
		out.cells = len(report.Plans)
		exported := report.Export()
		if err := encode(func() error {
			if q.format == "csv" {
				return scenario.WritePlansCSV(&buf, exported.Plans)
			}
			return scenario.WritePlansJSON(&buf, exported)
		}); err != nil {
			return out, err
		}
		if out.frontier, out.frontierN, err = frontierOf(exported); err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("unknown route %q", q.route)
	}
	out.bytes = buf.Bytes()
	return out, nil
}

// frontierPoint is the part of a Pareto plan that must not depend on how
// the planner found it: pruning and refinement may change ranks and which
// dominated cells were evaluated, never the frontier's optima.
type frontierPoint struct {
	Scenario   string  `json:"scenario"`
	Workers    int     `json:"workers"`
	Time       float64 `json:"time_s"`
	Cost       float64 `json:"cost"`
	Iterations float64 `json:"iterations"`
}

// frontierOf returns the report's Pareto plans, sorted by name, as JSON,
// and how many there are.
func frontierOf(r scenario.PlanReport) ([]byte, int, error) {
	var pts []frontierPoint
	for _, p := range r.Plans {
		if p.Pareto {
			pts = append(pts, frontierPoint{p.Scenario, p.OptimalWorkers, p.TimeSeconds, p.Cost, p.IterationsToAccuracy})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Scenario < pts[j].Scenario })
	doc, err := json.Marshal(pts)
	return doc, len(pts), err
}

// probeTotals is what a layer probe measured outside its spans.
type probeTotals struct {
	// kernel is the Monte-Carlo kernel time spent inside the probe's
	// core.sample calls (registry.KernelComputeTime delta).
	kernel time.Duration
}

// fingerprintSink keeps the probe's memo.HashInt32s calls from being
// optimized away.
var fingerprintSink atomic.Uint64

// probeExpand times the suite's cell expansion (scenario.Suite.Cells and a
// walk over every cell) and returns the expanded scenarios.
func probeExpand(tr *tracer, parent, op int, suite scenario.Suite) ([]scenario.Scenario, error) {
	var out []scenario.Scenario
	err := tr.timed("scenario.expand", parent, op, func() error {
		cs, err := suite.Cells()
		if err != nil {
			return err
		}
		next := cs.Next()
		for c, ok := next(); ok; c, ok = next() {
			out = append(out, c.Scenario)
		}
		return nil
	})
	return out, err
}

// probeCells replays cells one at a time through the layers' public
// functions, each call in its own span under a "cell" span: the degree
// lookup (registry.GraphDegreesCtx, which generates the graph on a cold
// cache), the fingerprint a graph-family build computes (memo.HashInt32s
// over the same slice, timed by the benchmark itself), the model build
// (scenario.Scenario.ModelCtx) and the curve (core.Model.SpeedupCurve).
func probeCells(ctx context.Context, tr *tracer, parent, op int, cells []scenario.Scenario) (probeTotals, error) {
	var pt probeTotals
	for _, sc := range cells {
		if err := probeCell(ctx, tr, parent, op, sc, &pt); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

func probeCell(ctx context.Context, tr *tracer, parent, op int, sc scenario.Scenario, pt *probeTotals) error {
	cell := tr.start("cell", parent, op)
	defer tr.end(cell)
	if g := sc.Workload.Graph; g != nil {
		var degrees []int32
		if err := tr.timed("graph.degrees", cell, op, func() (err error) {
			degrees, err = registry.GraphDegreesCtx(ctx, *g)
			return err
		}); err != nil {
			return err
		}
		tr.timed("memo.fingerprint", cell, op, func() error {
			fnv, mix := memo.HashInt32s(degrees)
			fingerprintSink.Store(fnv ^ mix)
			return nil
		})
	}
	var model core.Model
	if err := tr.timed("registry.build", cell, op, func() (err error) {
		model, err = sc.ModelCtx(ctx)
		return err
	}); err != nil {
		return err
	}
	k0 := registry.KernelComputeTime()
	err := tr.timed("core.sample", cell, op, func() (err error) {
		_, err = model.SpeedupCurve(sc.Workers())
		return err
	})
	pt.kernel += registry.KernelComputeTime() - k0
	return err
}
