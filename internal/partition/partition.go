// Package partition assigns graph vertices to workers and estimates the
// resulting per-worker edge loads — the quantity the paper's graphical-model
// computation model is built on (§IV-B):
//
//	t_cp ∝ maxᵢ Eᵢ · c(S) / F
//
// Following the paper, the load of worker i under random assignment is
// estimated as Eᵢ = Eᵢ_rnd − E_dup, where Eᵢ_rnd sums the degrees of the
// worker's vertices (counting intra-worker edges twice) and
//
//	E_dup = ½ · (V/n − 1) · (V/n) · E / (V·(V−1)/2)
//
// corrects for the expected double counting.
package partition

import (
	"context"
	"fmt"
	"math/bits"

	"dmlscale/internal/core"
	"dmlscale/internal/graph"
	"dmlscale/internal/memo"
	"dmlscale/internal/obs"
)

// Assignment maps each vertex to a worker in [0, Workers).
type Assignment struct {
	Workers int
	Owner   []int32
}

// Validate reports whether the assignment is well formed.
func (a Assignment) Validate() error {
	if a.Workers < 1 {
		return fmt.Errorf("partition: %d workers", a.Workers)
	}
	for v, w := range a.Owner {
		if w < 0 || int(w) >= a.Workers {
			return fmt.Errorf("partition: vertex %d assigned to worker %d of %d", v, w, a.Workers)
		}
	}
	return nil
}

// rng is the module's inline Monte-Carlo generator: the SplitMix64 stream
// (Steele, Lea, Flood 2014). The state advances by the golden gamma and
// each output is memo.SplitMix64 of the pre-advance state — one addition
// and one avalanche finalization per draw, no interface indirection, no
// heap state, trivially seedable per trial. The kernel draws billions of
// values on a cold sweep, so the per-draw constant matters more than any
// statistical nicety beyond SplitMix64's (which passes BigCrush).
type rng uint64

// next returns the stream's next 64-bit draw and advances the state.
func (s *rng) next() uint64 {
	v := memo.SplitMix64(uint64(*s))
	*s += 0x9e3779b97f4a7c15
	return v
}

// bounded maps a uniform 64-bit draw onto [0, n) by Lemire's multiply-shift
// reduction — the high 64 bits of r·n — replacing math/rand's divide-based
// Intn on the kernel's innermost loop. The reduction keeps a bias of at
// most n/2⁶⁴, which is beyond negligible for a Monte-Carlo load estimate
// averaged over trials (worker counts are tiny against 2⁶⁴).
func bounded(r uint64, n int) int {
	hi, _ := bits.Mul64(r, uint64(n))
	return int(hi)
}

// Random assigns each vertex to a uniformly random worker — the paper's
// Monte-Carlo assignment. It draws from the same SplitMix64-plus-Lemire
// generator as the Monte-Carlo kernel, seeded by one finalization of seed,
// so standalone assignments and kernel trials share one sampling scheme.
func Random(vertices, workers int, seed int64) (Assignment, error) {
	if err := checkSizes(vertices, workers); err != nil {
		return Assignment{}, err
	}
	state := rng(memo.SplitMix64(uint64(seed)))
	owner := make([]int32, vertices)
	for v := range owner {
		owner[v] = int32(bounded(state.next(), workers))
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// RoundRobin assigns vertex v to worker v mod n.
func RoundRobin(vertices, workers int) (Assignment, error) {
	if err := checkSizes(vertices, workers); err != nil {
		return Assignment{}, err
	}
	owner := make([]int32, vertices)
	for v := range owner {
		owner[v] = int32(v % workers)
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// BlockRange assigns contiguous vertex ranges of near-equal size.
func BlockRange(vertices, workers int) (Assignment, error) {
	if err := checkSizes(vertices, workers); err != nil {
		return Assignment{}, err
	}
	owner := make([]int32, vertices)
	base := vertices / workers
	extra := vertices % workers
	v := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < extra {
			size++
		}
		for i := 0; i < size; i++ {
			owner[v] = int32(w)
			v++
		}
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// GreedyByDegree assigns vertices in decreasing-degree order, each to the
// worker with the smallest degree sum so far (longest-processing-time
// heuristic). This approximates what a real system like GraphLab achieves
// with smarter-than-random placement, and serves as the "experimental"
// partitioner in the Fig. 4 simulation.
func GreedyByDegree(degrees []int32, workers int) (Assignment, error) {
	if err := checkSizes(len(degrees), workers); err != nil {
		return Assignment{}, err
	}
	// Counting sort by degree, descending, stable in vertex id: two flat
	// arrays (per-degree counts and the sorted order) instead of a slice of
	// per-degree buckets, so sorting 100K vertices costs two allocations
	// rather than one per distinct degree.
	maxDeg := int32(0)
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	starts := make([]int32, maxDeg+1)
	for _, d := range degrees {
		starts[d]++
	}
	next := int32(0)
	for d := int(maxDeg); d >= 0; d-- {
		count := starts[d]
		starts[d] = next
		next += count
	}
	order := make([]int32, len(degrees))
	for v, d := range degrees {
		order[starts[d]] = int32(v)
		starts[d]++
	}
	owner := make([]int32, len(degrees))
	loads := make([]int64, workers)
	for _, v := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		owner[v] = int32(best)
		loads[best] += int64(degrees[v])
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

func checkSizes(vertices, workers int) error {
	if vertices < 1 {
		return fmt.Errorf("partition: %d vertices", vertices)
	}
	if workers < 1 {
		return fmt.Errorf("partition: %d workers", workers)
	}
	return nil
}

// DegreeLoads returns Eᵢ_rnd for each worker: the sum of degrees of its
// vertices. Intra-worker edges are counted twice, exactly as in the paper's
// estimator.
func DegreeLoads(degrees []int32, a Assignment) ([]int64, error) {
	if len(degrees) != len(a.Owner) {
		return nil, fmt.Errorf("partition: %d degrees vs %d assigned vertices", len(degrees), len(a.Owner))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	loads := make([]int64, a.Workers)
	for v, d := range degrees {
		loads[a.Owner[v]] += int64(d)
	}
	return loads, nil
}

// DupCorrection returns the paper's E_dup estimate of edges counted twice on
// one worker: ½·(V/n − 1)·(V/n)·E/(V(V−1)/2).
func DupCorrection(vertices int, edges int64, workers int) float64 {
	v := float64(vertices)
	e := float64(edges)
	n := float64(workers)
	perWorker := v / n
	pairDensity := e / (v * (v - 1) / 2)
	return 0.5 * (perWorker - 1) * perWorker * pairDensity
}

// MaxLoad returns the maximum of loads, each corrected by dup. Results
// below zero clamp to zero.
func MaxLoad(loads []int64, dup float64) float64 {
	maxEi := 0.0
	for _, l := range loads {
		ei := float64(l) - dup
		if ei > maxEi {
			maxEi = ei
		}
	}
	return maxEi
}

// Estimate is the Monte-Carlo estimate of maxᵢ Eᵢ.
type Estimate struct {
	// MaxEdges is the mean over trials of maxᵢ(Eᵢ_rnd − E_dup).
	MaxEdges float64
	// Trials is how many random assignments were sampled.
	Trials int
}

// TrialSeed derives the RNG state of one Monte-Carlo trial from the base
// seed and the trial index by chained SplitMix64 finalization
// (memo.SplitMix64, the module's one copy). The worker count deliberately
// does NOT enter the derivation: every worker count sees the same random
// vertex placements per trial — common random numbers — so the difference
// between two curve points measures the partition modulus, not sampling
// noise, and one RNG pass per trial can feed every requested worker count
// at once. (The pre-batch scheme, StreamSeed, hashed workers into the
// stream and so forced one full RNG pass per (workers, trial) cell.)
func TrialSeed(seed int64, trial int) uint64 {
	h := memo.SplitMix64(uint64(seed))
	return memo.SplitMix64(h ^ uint64(trial))
}

// MonteCarloMaxEdges estimates maxᵢ Eᵢ for a random assignment of the given
// degree sequence to n workers, averaging over trials seeded assignments —
// the paper's "Monte-Carlo-like simulation". It is exactly the one-element
// MonteCarloMaxEdgesBatch: trials shard across the shared parallelism
// budget, each draws from its own TrialSeed(seed, trial) stream, and trial
// maxima are reduced in index order, so the estimate is bit-identical at
// any parallelism and to the same coordinates inside any batch.
func MonteCarloMaxEdges(degrees []int32, workers, trials int, seed int64) (Estimate, error) {
	ests, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{workers}, trials, seed)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

// MonteCarloMaxEdgesBatch estimates maxᵢ Eᵢ for every worker count in
// workerCounts over one shared set of random assignments: per trial it
// draws ONE uniform value per vertex from the inline SplitMix64 stream
// (TrialSeed) and reduces that single draw into each worker count's load
// vector via Lemire multiply-shift bounded reduction. A |W|-point curve
// therefore costs one O(trials·V) RNG pass plus a multiply-shift-and-add
// per (vertex, worker count) — instead of |W| independent RNG-heavy passes
// — and the worker counts share common random numbers, so curve-shape
// differences between adjacent points carry no independent sampling noise.
//
// Estimates align with workerCounts (which need not be sorted or unique).
// Trials shard across the shared parallelism budget and trial maxima are
// reduced in index order, so every estimate is bit-identical at any
// parallelism, for any worker-count subset and order: Batch(W)[w] ==
// Batch({w})[w] == MonteCarloMaxEdges(..., w, ...). Every shard checks ctx
// between trials, so a deadline or abort interrupts the kernel in roughly
// one trial's latency; a cancelled run returns ctx's error (wrapped) and no
// estimates — a partial trial mean would be a silently different,
// seed-order-dependent statistic.
func MonteCarloMaxEdgesBatch(ctx context.Context, degrees []int32, workerCounts []int, trials int, seed int64) ([]Estimate, error) {
	if trials < 1 {
		return nil, fmt.Errorf("partition: %d trials", trials)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("partition: empty worker-count batch")
	}
	for _, w := range workerCounts {
		if err := checkSizes(len(degrees), w); err != nil {
			return nil, err
		}
	}
	var edges int64
	for _, d := range degrees {
		edges += int64(d)
	}
	edges /= 2
	// Per worker count: its dup correction and its slice [offsets[i],
	// offsets[i+1]) of the shard-local flat loads buffer — one allocation
	// for the whole batch, laid out in batch order so the inner loop walks
	// it forward.
	dups := make([]float64, len(workerCounts))
	offsets := make([]int, len(workerCounts)+1)
	for i, w := range workerCounts {
		dups[i] = DupCorrection(len(degrees), edges, w)
		offsets[i+1] = offsets[i] + w
	}
	// lanes is the inner loop's working set: each worker count as the
	// (multiplier, flat-buffer offset) pair the per-vertex reduction needs,
	// in one contiguous slice so the hot loop does a single ranged read per
	// lane instead of two bounds-checked lookups.
	type lane struct {
		w   uint64
		off int
	}
	lanes := make([]lane, len(workerCounts))
	for i, w := range workerCounts {
		lanes[i] = lane{w: uint64(w), off: offsets[i]}
	}

	done := ctx.Done()
	// maxes[i*trials+trial] is worker count i's trial-th maximum; reducing
	// per worker count in trial-index order keeps every estimate
	// parallelism-independent.
	maxes := make([]float64, len(workerCounts)*trials)
	core.ParallelChunks(trials, func(lo, hi int) {
		_, shard := obs.Start(ctx, "mc-shard")
		shard.SetInt("trials", int64(hi-lo))
		shard.SetInt("batch", int64(len(workerCounts)))
		shard.SetInt("workers", int64(workerCounts[len(workerCounts)-1]))
		defer shard.End()
		loads := make([]int64, offsets[len(workerCounts)])
		for trial := lo; trial < hi; trial++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			state := rng(TrialSeed(seed, trial))
			for i := range loads {
				loads[i] = 0
			}
			for _, d := range degrees {
				r := state.next()
				dd := int64(d)
				for _, ln := range lanes {
					hi, _ := bits.Mul64(r, ln.w)
					loads[ln.off+int(hi)] += dd
				}
			}
			for i := range workerCounts {
				maxes[i*trials+trial] = MaxLoad(loads[offsets[i]:offsets[i+1]], dups[i])
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: Monte-Carlo estimation cancelled: %w", err)
	}
	ests := make([]Estimate, len(workerCounts))
	for i := range workerCounts {
		total := 0.0
		for _, m := range maxes[i*trials : (i+1)*trials] {
			total += m
		}
		ests[i] = Estimate{MaxEdges: total / float64(trials), Trials: trials}
	}
	return ests, nil
}

// ExactLoads returns, for each worker, the exact number of edges it
// processes under the assignment: every edge is counted once per endpoint
// owner (vertex-centric message passing works per directed edge), so an
// intra-worker edge contributes 2 to its worker and a cross-worker edge 1 to
// each side. This is the ground truth the estimator approximates.
func ExactLoads(g *graph.Graph, a Assignment) ([]int64, error) {
	if g.NumVertices() != len(a.Owner) {
		return nil, fmt.Errorf("partition: graph has %d vertices, assignment %d", g.NumVertices(), len(a.Owner))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	loads := make([]int64, a.Workers)
	for v := 0; v < g.NumVertices(); v++ {
		loads[a.Owner[v]] += int64(g.Degree(v))
	}
	return loads, nil
}

// ReplicationFactor returns r, the average number of remote workers that
// need each vertex's value: the count of (vertex, worker) pairs where the
// worker hosts a neighbor but not the vertex itself, divided by V. The
// paper's linear-communication BP model charges 32/B · r·V·S.
func ReplicationFactor(g *graph.Graph, a Assignment) (float64, error) {
	if g.NumVertices() != len(a.Owner) {
		return 0, fmt.Errorf("partition: graph has %d vertices, assignment %d", g.NumVertices(), len(a.Owner))
	}
	if err := a.Validate(); err != nil {
		return 0, err
	}
	var replicas int64
	seen := make([]int, a.Workers) // stamped per vertex to dedup workers
	stamp := 0
	for v := 0; v < g.NumVertices(); v++ {
		stamp++
		own := a.Owner[v]
		for _, w := range g.Neighbors(v) {
			nw := a.Owner[w]
			if nw != own && seen[nw] != stamp {
				seen[nw] = stamp
				replicas++
			}
		}
	}
	return float64(replicas) / float64(g.NumVertices()), nil
}
