package dmlscale_test

// Every suite file shipped under examples/suites must load, expand and
// evaluate cleanly — the examples are exercised here so they cannot rot.

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dmlscale"
	"dmlscale/internal/scenario"
)

func TestExampleSuiteFilesEvaluate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "suites", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected example suites under examples/suites, found %v", paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			suite, err := dmlscale.LoadSuite(path)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("suite evaluated to nothing")
			}
			for _, res := range results {
				if res.Err != nil {
					t.Errorf("%s: %v", res.Scenario.Name, res.Err)
					continue
				}
				if res.OptimalN < 1 || res.PeakSpeedup < 1 {
					t.Errorf("%s: optimum %d (%.2f×)", res.Scenario.Name, res.OptimalN, res.PeakSpeedup)
				}
			}
		})
	}
}

// TestFamilyTourCoversEveryFamily: the shipped family-tour suite really
// builds every workload family the public API exposes.
func TestFamilyTourCoversEveryFamily(t *testing.T) {
	suite, err := dmlscale.LoadSuite(filepath.Join("examples", "suites", "model-family-tour.json"))
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := suite.Expand()
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, sc := range scenarios {
		family, err := sc.Family()
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		covered[family] = true
	}
	for _, family := range dmlscale.WorkloadFamilies() {
		if !covered[family] {
			t.Errorf("family %q not covered by the family tour", family)
		}
	}
}

// TestSuiteDeterministicAtAnyParallelism: the acceptance bar for intra-curve
// parallelism — the same graph-inference scenario evaluated serially and on
// the full shared budget must produce bit-identical curves, because trial
// RNG streams are hashed per (seed, workers, trial) and reductions run in
// index order.
func TestSuiteDeterministicAtAnyParallelism(t *testing.T) {
	suite := dmlscale.Suite{
		Name: "determinism",
		Scenarios: []dmlscale.Scenario{{
			Name: "bp determinism probe",
			Workload: scenario.WorkloadSpec{
				Family: "mrf",
				Graph:  &scenario.GraphSpec{Family: "dns", Vertices: 20000, Seed: 5},
				States: 2,
				Trials: 4,
				Seed:   5,
			},
			Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
			Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
			MaxWorkers: 16,
		}},
	}

	evaluate := func(parallelism int) []dmlscale.SuiteResult {
		dmlscale.SetParallelism(parallelism)
		results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		return results
	}
	defer dmlscale.SetParallelism(0)
	serial := evaluate(1)
	parallel := evaluate(runtime.GOMAXPROCS(0))
	for i := range serial {
		sp, pp := serial[i].Curve.Points, parallel[i].Curve.Points
		if len(sp) != len(pp) {
			t.Fatalf("curve %d: %d vs %d points", i, len(sp), len(pp))
		}
		for j := range sp {
			if sp[j] != pp[j] {
				t.Fatalf("curve %d point %d: serial %+v != parallel %+v", i, j, sp[j], pp[j])
			}
		}
		if serial[i].OptimalN != parallel[i].OptimalN || serial[i].PeakSpeedup != parallel[i].PeakSpeedup {
			t.Fatalf("curve %d: optima differ (%d, %v) vs (%d, %v)", i,
				serial[i].OptimalN, serial[i].PeakSpeedup, parallel[i].OptimalN, parallel[i].PeakSpeedup)
		}
	}
}

// kernelGridSuite is a 12-cell grid (3 protocols × 4 bandwidths) whose
// cells all share ONE graph spec and sampling parameters: the axes vary
// only the communication side, so the whole grid prices off 16 Monte-Carlo
// kernel estimates — one per worker count.
func kernelGridSuite(vertices int) dmlscale.Suite {
	base := dmlscale.Scenario{
		Name: "bp grid base",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "dns", Vertices: vertices, Seed: 7},
			States: 2,
			Trials: 3,
			Seed:   7,
		},
		Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
		MaxWorkers: 16,
	}
	return dmlscale.Suite{
		Name: "kernel-shared grid",
		Sweep: &dmlscale.Sweep{
			Base:                 base,
			Protocols:            []string{"linear", "tree", "ring"},
			BandwidthsBitsPerSec: []float64{1e9, 10e9, 40e9, 100e9},
		},
	}
}

// TestSweepGridKernelComputedExactlyOnce is the acceptance probe for the
// shared kernel cache: a 12-cell grid over one graph spec performs the
// Monte-Carlo estimation for each (workers, trials, seed) exactly once —
// 16 estimations for the whole grid, none on a warm re-run — with results
// bit-identical between the cold and warm passes.
func TestSweepGridKernelComputedExactlyOnce(t *testing.T) {
	dmlscale.ResetCaches()
	defer dmlscale.ResetCaches()
	suite := kernelGridSuite(4000)
	cold, coldStats, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 12 || coldStats.Evaluated != 12 || coldStats.CurvesDeduped != 0 {
		t.Fatalf("grid shape off: %d results, stats %+v", len(cold), coldStats)
	}
	for _, res := range cold {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Scenario.Name, res.Err)
		}
	}
	st := dmlscale.SnapshotCaches().Estimates
	if st.Misses != 16 {
		t.Errorf("cold grid performed %d Monte-Carlo estimations, want exactly 16 (one per worker count)", st.Misses)
	}
	if st.Hits < 12*16-16 {
		t.Errorf("cold grid hit the kernel cache %d times, want ≥ %d", st.Hits, 12*16-16)
	}
	warm, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dmlscale.SnapshotCaches().Estimates.Misses; got != st.Misses {
		t.Errorf("warm grid re-estimated: misses %d → %d", st.Misses, got)
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Curve.Points, warm[i].Curve.Points) {
			t.Errorf("%s: warm curve differs from cold", cold[i].Scenario.Name)
		}
	}
}

// TestPlanSuiteFileRecommends: the shipped planning suite is the acceptance
// probe for the planner — it must emit a ranked recommendation (optimal
// worker count, time-to-accuracy, cost) per scenario, degrade the
// convergence-free scenario to per-iteration ranking with a clear notice,
// and produce bit-identical output at any parallelism.
func TestPlanSuiteFileRecommends(t *testing.T) {
	suite, err := dmlscale.LoadSuite(filepath.Join("examples", "suites", "plan-tta.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan := func(parallelism int) dmlscale.PlanReport {
		dmlscale.SetParallelism(parallelism)
		report, _, err := dmlscale.PlanSuite(context.Background(), suite, "", 0, dmlscale.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	defer dmlscale.SetParallelism(0)
	report := plan(1)

	if report.Objective != "pareto" {
		t.Errorf("objective = %q, want the suite's pareto", report.Objective)
	}
	aware, fallbacks, frontier := 0, 0, 0
	for i, p := range report.Plans {
		if p.Err != nil {
			t.Fatalf("%s: %v", p.Scenario.Name, p.Err)
		}
		if p.Rank != i+1 {
			t.Errorf("%s: rank %d at position %d", p.Scenario.Name, p.Rank, i)
		}
		if p.Optimal.Workers < 1 || p.Optimal.Time <= 0 || p.Optimal.Cost <= 0 {
			t.Errorf("%s: incomplete recommendation %+v", p.Scenario.Name, p.Optimal)
		}
		if p.ConvergenceAware {
			aware++
			if p.Optimal.Iterations <= 0 {
				t.Errorf("%s: no iteration prediction", p.Scenario.Name)
			}
		} else {
			fallbacks++
			if !strings.Contains(p.Notice, "per-iteration") {
				t.Errorf("%s: fallback without a clear notice: %q", p.Scenario.Name, p.Notice)
			}
		}
		if p.Pareto {
			frontier++
		}
	}
	if aware < 3 || fallbacks != 1 {
		t.Errorf("%d convergence-aware plans and %d fallbacks; suite should exercise both paths", aware, fallbacks)
	}
	if frontier < 2 {
		t.Errorf("%d frontier cells; the example should show a real cost×time trade-off", frontier)
	}
	// Fallbacks rank after every convergence-aware plan.
	if last := report.Plans[len(report.Plans)-1]; last.ConvergenceAware {
		t.Errorf("last rank went to a convergence-aware plan; fallback should rank last")
	}

	// Bit-identical at any parallelism, rank for rank.
	parallel := plan(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(report.Export(), parallel.Export()) {
		t.Fatal("serial and parallel plan reports differ")
	}
}
