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
	"math"
	"math/bits"
	"slices"

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
// draws ONE uniform value r per vertex from the inline SplitMix64 stream
// (TrialSeed), and vertex v lands on worker hi(r·w) — Lemire's
// multiply-shift reduction — of every worker count w at once (common random
// numbers).
//
// The kernel never reduces a draw once per worker count. hi(r·w) ≥ j exactly
// when r ≥ ⌈j·2⁶⁴/w⌉, so the sorted union of those cut points over the
// batch's distinct worker counts splits [0, 2⁶⁴) into C bins, each of which
// lies inside one worker of every w. A trial adds each vertex's degree to
// the one bin its draw falls in (a top-bits lookup table makes that O(1) on
// a dense axis, O(log C) at worst), prefix-sums the bins, and reads every
// worker's load as a difference of two prefix sums. The loads are the same
// integer sums the per-worker-count reduction gives, so the estimates are
// bit-identical to it, and a trial costs O(V + C + Σw) instead of O(V·|W|):
// the 1..64 axis has C ≈ 1.3K. Scratch is O(C + Σw); nothing is V-sized.
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
	axis := slices.Clone(workerCounts)
	slices.Sort(axis)
	axis = slices.Compact(axis)
	tab := newCutTable(axis)
	dups := make([]float64, len(axis))
	for i, w := range axis {
		dups[i] = DupCorrection(len(degrees), edges, w)
	}

	done := ctx.Done()
	// maxes[i*trials+trial] is distinct worker count i's trial-th maximum;
	// reducing per worker count in trial-index order keeps every estimate
	// parallelism-independent.
	maxes := make([]float64, len(axis)*trials)
	core.ParallelChunks(trials, func(lo, hi int) {
		_, shard := obs.Start(ctx, "mc-shard")
		shard.SetInt("trials", int64(hi-lo))
		shard.SetInt("batch", int64(len(workerCounts)))
		shard.SetInt("workers", int64(workerCounts[len(workerCounts)-1]))
		defer shard.End()
		// bins[k] accumulates bin k's degree sum; the prefix pass turns it
		// into the sum of bins before k, and bins[C] into the total.
		bins := make([]int64, len(tab.cuts)+1)
		for trial := lo; trial < hi; trial++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			clear(bins)
			tab.fill(bins, degrees, rng(TrialSeed(seed, trial)))
			var sum int64
			for k, b := range bins {
				bins[k] = sum
				sum += b
			}
			for i := range axis {
				maxes[i*trials+trial] = tab.maxLoad(bins, i, dups[i])
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: Monte-Carlo estimation cancelled: %w", err)
	}
	ests := make([]Estimate, len(workerCounts))
	for j, w := range workerCounts {
		i, _ := slices.BinarySearch(axis, w)
		total := 0.0
		for _, m := range maxes[i*trials : (i+1)*trials] {
			total += m
		}
		ests[j] = Estimate{MaxEdges: total / float64(trials), Trials: trials}
	}
	return ests, nil
}

// maxLUTBits caps the cut table's top-bits lookup at 2¹⁵ slots (256 KiB);
// past that, a slot's bins are binary-searched.
const maxLUTBits = 15

// cutTable is a worker axis laid out as histogram bins, built once per batch
// and shared read-only by every trial shard.
type cutTable struct {
	// cuts are the sorted distinct cut points ⌈j·2⁶⁴/w⌉ over the axis's
	// worker counts w and 0 ≤ j < w; bin k is [cuts[k], cuts[k+1]).
	cuts []uint64
	// lut[s] packs the first (low 32 bits) and last (high 32 bits) bins
	// that draws with top bits s, r>>shift == s, can fall in. It is sized
	// to two to four slots per cut, so most slots span at most two bins.
	lut   []uint64
	shift uint
	// bounds[offs[i]:offs[i+1]] are the w+1 bin indices that delimit the
	// workers of the axis's i-th worker count: worker j owns bins
	// [bounds[j], bounds[j+1]).
	bounds []int32
	offs   []int
	// single is the worker count of a one-point axis, whose bins are its
	// workers, so a draw's bin is hi(r·w) directly; 0 otherwise.
	single uint64
}

// newCutTable lays out a sorted, duplicate-free axis of worker counts.
func newCutTable(axis []int) *cutTable {
	t := &cutTable{offs: make([]int, len(axis)+1)}
	n := 0
	for i, w := range axis {
		n += w
		t.offs[i+1] = t.offs[i] + w + 1
	}
	t.cuts = make([]uint64, 0, n)
	for _, w := range axis {
		for j := range w {
			t.cuts = append(t.cuts, cutPoint(j, w))
		}
	}
	slices.Sort(t.cuts)
	t.cuts = slices.Compact(t.cuts)
	t.bounds = make([]int32, 0, t.offs[len(axis)])
	for _, w := range axis {
		for j := range w {
			k, _ := slices.BinarySearch(t.cuts, cutPoint(j, w))
			t.bounds = append(t.bounds, int32(k))
		}
		t.bounds = append(t.bounds, int32(len(t.cuts)))
	}
	if len(axis) == 1 {
		t.single = uint64(axis[0])
		return t
	}
	b := min(bits.Len(uint(len(t.cuts)))+1, maxLUTBits)
	t.shift = uint(64 - b)
	t.lut = make([]uint64, 1<<b)
	first, last := 0, 0
	for s := range t.lut {
		lo := uint64(s) << t.shift
		hi := lo | (1<<t.shift - 1)
		for first+1 < len(t.cuts) && t.cuts[first+1] <= lo {
			first++
		}
		for last+1 < len(t.cuts) && t.cuts[last+1] <= hi {
			last++
		}
		t.lut[s] = uint64(last)<<32 | uint64(first)
	}
	return t
}

// cutPoint returns ⌈j·2⁶⁴/w⌉ for 0 ≤ j < w: the least draw r with
// hi(r·w) ≥ j, where worker j of w begins.
func cutPoint(j, w int) uint64 {
	q, rem := bits.Div64(uint64(j), 0, uint64(w))
	if rem != 0 {
		q++
	}
	return q
}

// fill adds every vertex's degree to the bin of its draw from state.
func (t *cutTable) fill(bins []int64, degrees []int32, state rng) {
	if t.single != 0 {
		for _, d := range degrees {
			k, _ := bits.Mul64(state.next(), t.single)
			bins[k] += int64(d)
		}
		return
	}
	cuts, lut, shift := t.cuts, t.lut, t.shift
	for _, d := range degrees {
		r := state.next()
		e := lut[r>>shift]
		lo, hi := int(uint32(e)), int(e>>32)
		// The bin is the last k in [lo, hi] with cuts[k] ≤ r, and
		// cuts[lo] ≤ r holds. A slot rarely holds more than one cut, so
		// the common case is one branch-free compare (a no-op when
		// lo == hi).
		if hi-lo > 1 {
			lo = lastAtMost(cuts, lo, hi, r)
		} else {
			_, below := bits.Sub64(r, cuts[hi], 0)
			lo = hi - int(below)
		}
		bins[lo] += int64(d)
	}
}

// lastAtMost returns the last k in [lo, hi] with cuts[k] ≤ r, given
// cuts[lo] ≤ r.
func lastAtMost(cuts []uint64, lo, hi int, r uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if cuts[mid] <= r {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// maxLoad returns the axis's i-th worker count's max(0, maxⱼ Eⱼ − dup) from
// prefix-summed bins — MaxLoad over its load vector, bit for bit: a float64
// conversion and the subtraction are monotone, so the largest integer load
// gives the largest corrected one.
func (t *cutTable) maxLoad(prefix []int64, i int, dup float64) float64 {
	bounds := t.bounds[t.offs[i]:t.offs[i+1]]
	prev := prefix[bounds[0]]
	top := int64(math.MinInt64)
	for _, b := range bounds[1:] {
		next := prefix[b]
		top = max(top, next-prev)
		prev = next
	}
	return MaxLoad([]int64{top}, dup)
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
