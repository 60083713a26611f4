package partition

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dmlscale/internal/core"
	"dmlscale/internal/graph"
)

func uniformDegrees(n int, d int32) []int32 {
	ds := make([]int32, n)
	for i := range ds {
		ds[i] = d
	}
	return ds
}

func TestRandomAssignment(t *testing.T) {
	a, err := Random(1000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, w := range a.Owner {
		counts[w]++
	}
	for w, c := range counts {
		if c < 180 || c > 320 {
			t.Errorf("worker %d got %d vertices; badly unbalanced", w, c)
		}
	}
	// Determinism.
	b, _ := Random(1000, 4, 7)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestRoundRobinAndBlock(t *testing.T) {
	rr, err := RoundRobin(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Owner[0] != 0 || rr.Owner[1] != 1 || rr.Owner[3] != 0 {
		t.Errorf("round robin owners = %v", rr.Owner)
	}
	br, err := BlockRange(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes 4, 3, 3.
	counts := make([]int, 3)
	for _, w := range br.Owner {
		counts[w]++
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Errorf("block sizes = %v", counts)
	}
	// Contiguity.
	for i := 1; i < 10; i++ {
		if br.Owner[i] < br.Owner[i-1] {
			t.Error("block assignment not contiguous")
		}
	}
}

func TestSizeErrors(t *testing.T) {
	if _, err := Random(0, 3, 1); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := RoundRobin(5, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := GreedyByDegree(nil, 2); err == nil {
		t.Error("empty degrees accepted")
	}
	bad := Assignment{Workers: 2, Owner: []int32{0, 5}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestGreedyByDegreeBalances(t *testing.T) {
	// One huge hub and many small vertices: greedy must isolate the hub.
	degrees := append([]int32{1000}, uniformDegrees(999, 2)...)
	a, err := GreedyByDegree(degrees, 4)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := DegreeLoads(degrees, a)
	if err != nil {
		t.Fatal(err)
	}
	// Total = 1000 + 1998 = 2998; the hub's worker should get little else.
	hubWorker := a.Owner[0]
	if loads[hubWorker] > 1010 {
		t.Errorf("hub worker load = %d; greedy failed to isolate the hub", loads[hubWorker])
	}
	// Greedy max load is within 15%% of the random assignment's.
	rnd, _ := Random(len(degrees), 4, 3)
	rndLoads, _ := DegreeLoads(degrees, rnd)
	if MaxLoad(loads, 0) > MaxLoad(rndLoads, 0) {
		t.Errorf("greedy max load %v worse than random %v", MaxLoad(loads, 0), MaxLoad(rndLoads, 0))
	}
}

func TestGreedyByDegreeMatchesReferenceOrder(t *testing.T) {
	// The counting sort must process vertices in descending degree, stable
	// in vertex id — the same order a straightforward stable sort gives —
	// so the flat-array rewrite cannot change any assignment.
	degrees, err := graph.PowerLawDegrees(2000, 12000, 400, 17)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyByDegree(degrees, 7)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(degrees))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return degrees[order[a]] > degrees[order[b]] })
	owner := make([]int32, len(degrees))
	loads := make([]int64, 7)
	for _, v := range order {
		best := 0
		for w := 1; w < 7; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		owner[v] = int32(best)
		loads[best] += int64(degrees[v])
	}
	for v := range owner {
		if got.Owner[v] != owner[v] {
			t.Fatalf("vertex %d assigned to %d, reference says %d", v, got.Owner[v], owner[v])
		}
	}
}

func TestDegreeLoadsConservation(t *testing.T) {
	// Property: loads sum to the degree sum for any assignment.
	f := func(seed int64, rawWorkers uint8) bool {
		workers := int(rawWorkers%8) + 1
		degrees, err := graph.PowerLawDegrees(500, 3000, 200, seed)
		if err != nil {
			return false
		}
		a, err := Random(len(degrees), workers, seed)
		if err != nil {
			return false
		}
		loads, err := DegreeLoads(degrees, a)
		if err != nil {
			return false
		}
		var sum, want int64
		for _, l := range loads {
			sum += l
		}
		for _, d := range degrees {
			want += int64(d)
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDegreeLoadsErrors(t *testing.T) {
	a, _ := Random(5, 2, 1)
	if _, err := DegreeLoads(uniformDegrees(4, 1), a); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDupCorrectionPaperIdentities(t *testing.T) {
	// With n = 1, E_dup = ½·(V−1)·V·E/(V(V−1)/2) = E: all edges counted
	// twice, so E₁ = 2E − E = E exactly — the identity that makes
	// s(n) = E/maxEᵢ(n) self-consistent.
	v, e := 10000, int64(61000)
	dup := DupCorrection(v, e, 1)
	if math.Abs(dup-float64(e)) > 1e-6*float64(e) {
		t.Errorf("E_dup(n=1) = %v, want E = %d", dup, e)
	}
	// E_dup decreases with n roughly as 1/n².
	d2 := DupCorrection(v, e, 2)
	d4 := DupCorrection(v, e, 4)
	if ratio := d2 / d4; math.Abs(ratio-4) > 0.1 {
		t.Errorf("E_dup(2)/E_dup(4) = %v, want ≈ 4", ratio)
	}
}

func TestMonteCarloEstimateMatchesUniform(t *testing.T) {
	// For a regular graph the estimate should approach E/n (perfect
	// balance) as skew vanishes.
	degrees := uniformDegrees(10000, 10)
	est, err := MonteCarloMaxEdges(degrees, 4, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	edges := float64(10000*10) / 2
	perWorker := edges / 4 // plus double-counted intra-worker edges − dup ≈ balanced
	// Eᵢ = loads − dup; loads ≈ 2E/n = 25000; dup is tiny here (sparse),
	// so Eᵢ ≈ 2E/n − dup. Accept the band [E/n, 2.2·E/n].
	if est.MaxEdges < perWorker || est.MaxEdges > 2.2*perWorker {
		t.Errorf("MC estimate = %v, want within [%v, %v]", est.MaxEdges, perWorker, 2.2*perWorker)
	}
}

func TestMonteCarloSkewIncreasesMax(t *testing.T) {
	// A heavy-tailed sequence must yield a higher max load than a uniform
	// one with the same edge count.
	skewed, err := graph.PowerLawDegrees(10000, 50000, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform := uniformDegrees(10000, 10)
	estSkew, err := MonteCarloMaxEdges(skewed, 8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	estUni, err := MonteCarloMaxEdges(uniform, 8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if estSkew.MaxEdges <= estUni.MaxEdges {
		t.Errorf("skewed max %v should exceed uniform max %v", estSkew.MaxEdges, estUni.MaxEdges)
	}
}

func TestTrialSeedIndependence(t *testing.T) {
	// Every (seed, trial) pair must open an independent stream: nearby
	// trials may not collide, or adjacent trials would redraw the same
	// assignments. The worker count deliberately does not participate —
	// common random numbers across worker counts is the batched kernel's
	// sampling contract.
	seen := map[uint64][2]int64{}
	for seed := int64(0); seed < 8; seed++ {
		for trial := 0; trial < 64; trial++ {
			s := TrialSeed(seed, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("TrialSeed(%d, %d) collides with (%d, %d)", seed, trial, prev[0], prev[1])
			}
			seen[s] = [2]int64{seed, int64(trial)}
		}
	}
	// Pinned values: the derivation is part of the estimator's contract —
	// changing it silently would change every published model number.
	pins := []struct {
		seed  int64
		trial int
		want  uint64
	}{
		{42, 0, 6332618229526065668},
		{42, 1, 17532488217563185893},
		{0, 0, 12035550249420947055},
	}
	for _, p := range pins {
		if got := TrialSeed(p.seed, p.trial); got != p.want {
			t.Errorf("TrialSeed(%d, %d) = %d, want %d", p.seed, p.trial, got, p.want)
		}
	}
}

func TestMonteCarloPinnedEstimate(t *testing.T) {
	// Golden value for the common-random-numbers estimator on a fixed
	// input (re-pinned from 699.8648648648649 when the batched kernel
	// replaced the per-worker-count hashed streams).
	degrees := make([]int32, 1000)
	for i := range degrees {
		degrees[i] = int32(1 + i%5)
	}
	est, err := MonteCarloMaxEdges(degrees, 4, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := 715.5315315315315; est.MaxEdges != want {
		t.Errorf("MaxEdges = %v, want pinned %v", est.MaxEdges, want)
	}
	if est.Trials != 3 {
		t.Errorf("Trials = %d, want 3", est.Trials)
	}
}

func TestMonteCarloBatchMatchesSingleton(t *testing.T) {
	// The bit-identity contract: Batch(W)[w] == Batch({w})[w] ==
	// MonteCarloMaxEdges(w) for every w ∈ W, whatever the order of W,
	// however many duplicates it holds, and at any parallelism — common
	// random numbers mean the estimate for w never depends on which other
	// worker counts shared its RNG pass.
	degrees, err := graph.PowerLawDegrees(5000, 30000, 800, 13)
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 4, 21
	sets := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 3, 5, 1},
		{7},
		{4, 4, 2, 4}, // duplicates allowed, aligned output
	}
	defer core.SetParallelism(0)
	for _, par := range []int{1, 8} {
		core.SetParallelism(par)
		for _, set := range sets {
			batch, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, set, trials, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(set) {
				t.Fatalf("batch over %v returned %d estimates", set, len(batch))
			}
			for i, w := range set {
				single, err := MonteCarloMaxEdges(degrees, w, trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				if batch[i] != single {
					t.Errorf("par=%d set=%v: Batch[%d] (w=%d) = %v, singleton = %v",
						par, set, i, w, batch[i], single)
				}
			}
		}
	}
}

// referenceBatch is the kernel's oracle: the per-(vertex, worker count)
// multiply-shift scatter the cut-point histogram replaced. Per trial it
// draws one value per vertex and reduces it into every worker count's own
// load vector with hi(r·w), then reduces trial maxima in index order.
func referenceBatch(degrees []int32, workerCounts []int, trials int, seed int64) []Estimate {
	var edges int64
	for _, d := range degrees {
		edges += int64(d)
	}
	edges /= 2
	loads := make([][]int64, len(workerCounts))
	totals := make([]float64, len(workerCounts))
	for i, w := range workerCounts {
		loads[i] = make([]int64, w)
	}
	for trial := 0; trial < trials; trial++ {
		state := rng(TrialSeed(seed, trial))
		for i := range loads {
			clear(loads[i])
		}
		for _, d := range degrees {
			r := state.next()
			for i, w := range workerCounts {
				hi, _ := bits.Mul64(r, uint64(w))
				loads[i][hi] += int64(d)
			}
		}
		for i, w := range workerCounts {
			totals[i] += MaxLoad(loads[i], DupCorrection(len(degrees), edges, w))
		}
	}
	ests := make([]Estimate, len(workerCounts))
	for i := range workerCounts {
		ests[i] = Estimate{MaxEdges: totals[i] / float64(trials), Trials: trials}
	}
	return ests
}

// workerSpan returns the worker axis lo..hi.
func workerSpan(lo, hi int) []int {
	axis := make([]int, 0, hi-lo+1)
	for w := lo; w <= hi; w++ {
		axis = append(axis, w)
	}
	return axis
}

// checkBatchMatchesReference fails t unless the kernel's estimates equal the
// oracle's bit for bit.
func checkBatchMatchesReference(t *testing.T, label string, degrees []int32, workerCounts []int, trials int, seed int64) {
	t.Helper()
	got, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, workerCounts, trials, seed)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := referenceBatch(degrees, workerCounts, trials, seed)
	for i, w := range workerCounts {
		if math.Float64bits(got[i].MaxEdges) != math.Float64bits(want[i].MaxEdges) || got[i].Trials != want[i].Trials {
			t.Errorf("%s: axis %v, w=%d: kernel %v, reference %v", label, workerCounts, w, got[i], want[i])
		}
	}
}

func TestBatchMatchesReference(t *testing.T) {
	dns, err := graph.ScaledDNSGraph(6000).Degrees(3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid2D(60, 70)
	if err != nil {
		t.Fatal(err)
	}
	src := rand.New(rand.NewSource(5))
	random := make([]int32, 3000)
	for i := range random {
		random[i] = int32(src.Intn(200))
	}
	sequences := []struct {
		name    string
		degrees []int32
	}{
		{"dns", dns},
		{"grid", grid.Degrees()},
		{"random", random},
	}
	for _, seq := range sequences {
		v := len(seq.degrees)
		axes := [][]int{
			workerSpan(1, 64),
			{64, 3, 17, 1, 40, 2},     // unsorted
			{8, 8, 3, 8, 3},           // duplicated
			{1},                       // one worker
			{v},                       // one vertex per worker on average
			{2, 5, 11, 97, 300, 1023}, // non-contiguous
			{4096, 1, 4095, 7},        // up to 4096 workers
			workerSpan(2000, 2100),    // a crowded cut table
		}
		for _, axis := range axes {
			for trials := 1; trials <= 5; trials++ {
				checkBatchMatchesReference(t, seq.name, seq.degrees, axis, trials, int64(trials)*7+1)
			}
		}
	}
}

// stateFor returns the generator state whose next draw is r, by inverting
// the SplitMix64 output mix: each xorshift and odd multiply is a bijection.
func stateFor(r uint64) rng {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(m uint64) uint64 { // m·x ≡ 1 (mod 2⁶⁴), Newton's iteration
		x := m
		for range 5 {
			x *= 2 - m*x
		}
		return x
	}
	z := unshift(r, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return rng(unshift(z, 30) - 0x9e3779b97f4a7c15) // SplitMix64 adds γ before mixing
}

func TestCutTableBinsDrawsAtEveryBoundary(t *testing.T) {
	// Draws on and beside every cut point and lookup-slot edge must land
	// in the bin that lies inside worker hi(r·w) of every w on the axis —
	// the exactness the histogram rests on, at the draws random trials
	// almost never produce.
	axes := [][]int{{1}, {7}, {4096}, {2, 3}, workerSpan(1, 64), {1, 7, 4095, 4096}, workerSpan(2000, 2100)}
	for _, axis := range axes {
		tab := newCutTable(axis)
		bins := make([]int64, len(tab.cuts)+1)
		stride := max(1, len(tab.cuts)/5000) // sample a crowded table's cuts
		var draws []uint64
		for k := 0; k < len(tab.cuts); k += stride {
			c := tab.cuts[k]
			draws = append(draws, c-1, c, c+1) // c-1 wraps to 2⁶⁴−1 at c = 0
		}
		for s := range tab.lut {
			draws = append(draws, uint64(s)<<tab.shift, uint64(s)<<tab.shift-1)
		}
		for _, r := range draws {
			state := stateFor(r)
			if probe := state; probe.next() != r {
				t.Fatalf("stateFor(%d) is not the state before that draw", r)
			}
			tab.fill(bins, []int32{1}, state)
			k, found := slices.BinarySearch(tab.cuts, r)
			if !found {
				k-- // the last cut at most r; cuts[0] = 0
			}
			if bins[k] != 1 {
				t.Fatalf("axis %v: draw %d not in bin %d", axis, r, k)
			}
			bins[k] = 0
			for i, w := range axis {
				j, _ := bits.Mul64(r, uint64(w))
				bounds := tab.bounds[tab.offs[i]:tab.offs[i+1]]
				if int32(k) < bounds[j] || int32(k) >= bounds[j+1] {
					t.Fatalf("axis %v: draw %d in bin %d, outside worker %d of %d (bins [%d, %d))",
						axis, r, k, j, w, bounds[j], bounds[j+1])
				}
			}
		}
	}
}

func FuzzBatchMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(1), uint16(64), uint8(3), int64(42))
	f.Add([]byte{0, 0, 255, 9}, uint16(4096), uint16(7), uint8(1), int64(-1))
	f.Add([]byte{200}, uint16(3), uint16(3), uint8(5), int64(0))
	f.Add([]byte{17, 4, 4, 4, 90, 1}, uint16(1000), uint16(999), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint16, trials uint8, seed int64) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		degrees := make([]int32, len(raw))
		for i, d := range raw {
			degrees[i] = int32(d)
		}
		// Two endpoints plus the gap between them: unsorted, possibly
		// equal, spanning 1..4096.
		wa, wb := int(a)%4096+1, int(b)%4096+1
		axis := []int{wa, wb, (wa+wb)/2 + 1}
		checkBatchMatchesReference(t, "fuzz", degrees, axis, int(trials)%5+1, seed)
	})
}

func TestMonteCarloBatchErrors(t *testing.T) {
	degrees := uniformDegrees(10, 2)
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, nil, 1, 1); err == nil {
		t.Error("empty worker-count batch accepted")
	}
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{2, 0}, 1, 1); err == nil {
		t.Error("zero worker count inside batch accepted")
	}
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{2}, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMonteCarloBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	degrees := uniformDegrees(1000, 4)
	if _, err := MonteCarloMaxEdgesBatch(ctx, degrees, []int{1, 2, 4}, 8, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch returned %v, want context.Canceled", err)
	}
}

func TestMonteCarloDeterministicAtAnyParallelism(t *testing.T) {
	degrees, err := graph.PowerLawDegrees(20000, 120000, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetParallelism(0)
	core.SetParallelism(1)
	serial, err := MonteCarloMaxEdges(degrees, 12, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	core.SetParallelism(8)
	parallel, err := MonteCarloMaxEdges(degrees, 12, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MaxEdges != parallel.MaxEdges {
		t.Errorf("serial %v != parallel %v: trial sharding changed the estimate", serial.MaxEdges, parallel.MaxEdges)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarloMaxEdges(uniformDegrees(10, 2), 2, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := MonteCarloMaxEdges(nil, 2, 1, 1); err == nil {
		t.Error("empty degrees accepted")
	}
}

func TestExactLoads(t *testing.T) {
	// 4-cycle split in half: each worker owns 2 adjacent vertices, one
	// intra edge (counted twice) + two cross edges (once each side) = 4.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := Assignment{Workers: 2, Owner: []int32{0, 0, 1, 1}}
	loads, err := ExactLoads(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 4 || loads[1] != 4 {
		t.Errorf("loads = %v, want [4 4]", loads)
	}
	if _, err := ExactLoads(g, Assignment{Workers: 2, Owner: []int32{0}}); err == nil {
		t.Error("mismatched assignment accepted")
	}
}

func TestReplicationFactor(t *testing.T) {
	// 4-cycle, half/half: vertices 1 and 2 are each needed remotely once,
	// as are 0 and 3 → 4 replicas / 4 vertices = 1.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := Assignment{Workers: 2, Owner: []int32{0, 0, 1, 1}}
	r, err := ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("replication factor = %v, want 1", r)
	}
	// All on one worker: no replicas.
	single := Assignment{Workers: 1, Owner: []int32{0, 0, 0, 0}}
	r, err = ReplicationFactor(g, single)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("single-worker replication factor = %v, want 0", r)
	}
}

func TestReplicationFactorBounds(t *testing.T) {
	// Property: 0 ≤ r ≤ min(degree, workers−1) averaged — specifically
	// r ≤ workers−1 always.
	g, err := graph.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		a, err := Random(g.NumVertices(), workers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReplicationFactor(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0 || r > float64(workers-1) {
			t.Errorf("workers=%d: replication factor %v out of bounds", workers, r)
		}
	}
}
