package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"dmlscale/internal/scenario"
)

// Every input is a pure function of the --seed value and the workload: the
// same seed gives byte-identical suite documents, and the program under
// test sees only those documents.

const (
	// serveWorkers is the worker axis of every graph what-if: 1..64.
	serveWorkers = 64
	// servePool is how many distinct what-if requests set-up prepares (with
	// their offline reference bytes); the closed loop cycles through them.
	servePool = 128
	// sweepPool and planPool are the cold-sweep and planning suites
	// set-up prepares; ops cycle through them. The sweeps come in five
	// sizes, two suites each, and there are five grids: an odd number of
	// equally frequent sizes puts the median op inside the middle size's
	// latencies rather than in the gap between two.
	sweepPool = 10
	planPool  = 5
)

// rngFor returns the generator of one workload's inputs; stream keeps the
// workloads' sequences independent under one seed.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// pick returns k distinct elements of from, in from's order.
func pick[T any](rng *rand.Rand, from []T, k int) []T {
	idx := rng.Perm(len(from))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

// bandwidths draws k distinct log-uniform link rates, ascending.
func bandwidths(rng *rand.Rand, k int, lo, hi float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = logUniform(rng, lo, hi)
	}
	sort.Float64s(out)
	return out
}

// graphProtocols are the leaf protocols a graph what-if may sweep; each
// prices the belief exchange from a bandwidth alone.
var graphProtocols = []string{"linear", "tree", "two-stage-tree", "ring", "spark", "recursive-doubling"}

// serveGraphs returns the three pre-warmed graph workloads the what-if
// requests modify: DNS 60K mrf, DNS 200K graph-inference, grid 250K mrf.
// Graph and Monte-Carlo seeds come from the benchmark seed.
func serveGraphs(seed int64) []scenario.Scenario {
	rng := rngFor(seed, 1)
	base := func(name, family string, g scenario.GraphSpec) scenario.Scenario {
		return scenario.Scenario{
			Name:       name,
			Workload:   scenario.WorkloadSpec{Family: family, Graph: &g, Trials: 3, Seed: rng.Int64N(1 << 30)},
			Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
			Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
			MaxWorkers: serveWorkers,
		}
	}
	dns60 := base("mrf dns 60k", "mrf", scenario.GraphSpec{Family: "dns", Vertices: 60_000, Seed: rng.Int64N(1 << 30)})
	dns200 := base("bp dns 200k", "graph-inference", scenario.GraphSpec{Family: "dns", Vertices: 200_000, Seed: rng.Int64N(1 << 30)})
	dns200.Workload.OpsPerEdge = 8
	grid := base("mrf grid 250k", "mrf", scenario.GraphSpec{Family: "grid", Vertices: 250_000})
	return []scenario.Scenario{dns60, dns200, grid}
}

// request is one what-if for the serving workload.
type request struct {
	// Route is "sweep" or "plan".
	Route string
	// Suite is the suite document the request carries.
	Suite json.RawMessage
	// Objective is the plan objective ("" for sweeps).
	Objective string
	// Body is the POST body.
	Body []byte
	// Cells is the number of suite cells the request asks for.
	Cells int
}

// query is how the server answers the request, for the in-process
// reference.
func (r request) query() query {
	return query{route: r.Route, objective: r.Objective, format: "json"}
}

// serveRequests returns n seeded what-ifs, each sweeping 2–4 protocols ×
// 2–4 log-uniform bandwidths over one of the serveGraphs on the 64-point
// worker axis; requests i%10 < 3 are plans (30%), the rest sweeps. The
// shape of request i (graph, protocol count, bandwidth count, route) is
// fixed, so every seed asks for the same amount of work; the seed draws the
// protocols, bandwidths, objectives and graphs. Bandwidths are continuous,
// so no two requests are identical.
func serveRequests(seed int64, n int) ([]request, error) {
	graphs := serveGraphs(seed)
	rng := rngFor(seed, 2)
	out := make([]request, n)
	for i := range out {
		shape := i % 27
		base := graphs[shape%3]
		base.Name = fmt.Sprintf("%s what-if %d", base.Name, i)
		protocols := pick(rng, graphProtocols, 2+shape/3%3)
		bws := bandwidths(rng, 2+shape/9, 1e8, 1e11)
		base.Protocol = scenario.ProtocolSpec{Kind: protocols[0], BandwidthBitsPerSec: bws[0]}
		suite := scenario.Suite{
			Name:  fmt.Sprintf("what-if %d", i),
			Sweep: &scenario.Sweep{Base: base, Protocols: protocols, BandwidthsBitsPerSec: bws},
		}
		doc, err := json.Marshal(suite)
		if err != nil {
			return nil, err
		}
		r := request{Route: "sweep", Suite: doc, Cells: len(protocols) * len(bws)}
		body := map[string]any{"suite": r.Suite}
		if i%10 < 3 {
			r.Route = "plan"
			r.Objective = []string{"tta", "cost", "pareto"}[rng.IntN(3)]
			body["objective"] = r.Objective
		}
		if r.Body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// sweepSuites returns n seeded cold-sweep suites: one DNS graph of 40K–80K
// vertices swept over 3 protocols × 4 bandwidths (12 cells) on the 64-point
// worker axis, 3 Monte-Carlo trials. Suites 2j and 2j+1 share a vertex
// count, and the n/2 counts are fixed and evenly spaced over the range, so
// every seed asks for the same amount of work; the seed draws the
// protocols, bandwidths and graph and Monte-Carlo seeds.
func sweepSuites(seed int64, n int) ([][]byte, error) {
	rng := rngFor(seed, 3)
	out := make([][]byte, n)
	for i := range out {
		protocols := pick(rng, graphProtocols, 3)
		bws := bandwidths(rng, 4, 1e8, 1e11)
		g := scenario.GraphSpec{Family: "dns", Vertices: 40_000 + i/2*40_000/max(n/2-1, 1), Seed: rng.Int64N(1 << 30)}
		base := scenario.Scenario{
			Name:       fmt.Sprintf("mrf dns %d", g.Vertices),
			Workload:   scenario.WorkloadSpec{Family: "mrf", Graph: &g, Trials: 3, Seed: rng.Int64N(1 << 30)},
			Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
			Protocol:   scenario.ProtocolSpec{Kind: protocols[0], BandwidthBitsPerSec: bws[0]},
			MaxWorkers: serveWorkers,
		}
		doc, err := json.Marshal(scenario.Suite{
			Name:  fmt.Sprintf("cold sweep %d", i),
			Sweep: &scenario.Sweep{Base: base, Protocols: protocols, BandwidthsBitsPerSec: bws},
		})
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}

// planSuites returns n seeded analytic planning grids of 2025 cells:
// 5 protocols × 3 hardware presets × 9 bandwidths × 3 precisions × 5 worker
// bounds up to 1024, over the Fig. 3 gradient-descent workload with a
// diminishing-returns convergence block. Only the bandwidths are seeded:
// bandwidth i is drawn from the i-th of 9 equal log strata of 0.2–50
// Gbit/s, so the pruning the grids allow hardly depends on the seed.
func planSuites(seed int64, n int) ([][]byte, error) {
	rng := rngFor(seed, 4)
	out := make([][]byte, n)
	for i := range out {
		base := scenario.Fig3()
		base.Name = "conv ANN"
		base.Convergence = &scenario.ConvergenceSpec{Rule: "diminishing", BaseIterations: 60_000, CriticalBatchGrowth: 24}
		bws := make([]float64, 9)
		step := math.Pow(5e10/2e8, 1/float64(len(bws)))
		for j := range bws {
			lo := 2e8 * math.Pow(step, float64(j))
			bws[j] = logUniform(rng, lo, lo*step)
		}
		doc, err := json.Marshal(scenario.Suite{
			Name:      fmt.Sprintf("adaptive grid %d", i),
			Objective: "pareto",
			Sweep: &scenario.Sweep{
				Base:                 base,
				Protocols:            []string{"tree", "two-stage-tree", "spark", "ring", "pipelined-tree"},
				Hardware:             []string{"xeon-e3-1240", "nvidia-k40", "dl980-core"},
				BandwidthsBitsPerSec: bws,
				PrecisionsBits:       []float64{16, 32, 64},
				MaxWorkers:           []int{128, 256, 512, 768, 1024},
			},
		})
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}
