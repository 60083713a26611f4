package partition

import (
	"context"
	"math/rand"
	"testing"

	"dmlscale/internal/core"
	"dmlscale/internal/graph"
	"dmlscale/internal/memo"
)

func benchDegrees(b *testing.B, vertices int) []int32 {
	b.Helper()
	degrees, err := graph.ScaledDNSGraph(vertices).Degrees(1)
	if err != nil {
		b.Fatal(err)
	}
	return degrees
}

// benchmarkMonteCarlo runs the estimator at a fixed shared-budget setting;
// run with -benchmem to see the scratch-buffer reuse (allocs stay flat as
// trials grow).
func benchmarkMonteCarlo(b *testing.B, vertices, workers, trials, parallelism int) {
	degrees := benchDegrees(b, vertices)
	defer core.SetParallelism(0)
	core.SetParallelism(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloMaxEdges(degrees, workers, trials, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloMaxEdges100K(b *testing.B) {
	benchmarkMonteCarlo(b, 100000, 64, 1, 0)
}

// BenchmarkMonteCarloMaxEdges100K8TrialsSerial vs ...Parallel measures the
// intra-estimate trial sharding: same seeds, same result, split across the
// budget.
func BenchmarkMonteCarloMaxEdges100K8TrialsSerial(b *testing.B) {
	benchmarkMonteCarlo(b, 100000, 64, 8, 1)
}

func BenchmarkMonteCarloMaxEdges100K8TrialsParallel(b *testing.B) {
	benchmarkMonteCarlo(b, 100000, 64, 8, 0)
}

// legacyStreamSeed reproduces the pre-batch kernel's per-(workers, trial)
// seed derivation: hashing the worker count into the stream forced one
// independent RNG pass per curve point. Kept here, bench-only, as the
// baseline's faithful sampling scheme.
func legacyStreamSeed(seed int64, workers, trial int) int64 {
	h := memo.SplitMix64(uint64(seed))
	h = memo.SplitMix64(h ^ uint64(workers))
	h = memo.SplitMix64(h ^ uint64(trial))
	return int64(h)
}

// legacyMonteCarloMaxEdges is a faithful replica of the kernel this PR
// replaced: one full math/rand pass (rand.New + Intn per vertex) per
// (workers, trial) cell, staging the assignment through an owner array. The
// headline benchmark measures the new batched kernel against it.
func legacyMonteCarloMaxEdges(degrees []int32, workers, trials int, seed int64) Estimate {
	var edges int64
	for _, d := range degrees {
		edges += int64(d)
	}
	edges /= 2
	dup := DupCorrection(len(degrees), edges, workers)
	owner := make([]int32, len(degrees))
	loads := make([]int64, workers)
	rng := rand.New(rand.NewSource(0))
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		rng.Seed(legacyStreamSeed(seed, workers, trial))
		for v := range owner {
			owner[v] = int32(rng.Intn(workers))
		}
		for w := range loads {
			loads[w] = 0
		}
		for v, d := range degrees {
			loads[owner[v]] += int64(d)
		}
		total += MaxLoad(loads, dup)
	}
	return Estimate{MaxEdges: total / float64(trials), Trials: trials}
}

// BenchmarkKernelBatchedVsPerWorker is the batched-kernel headline: pricing
// a 64-point worker axis over one degree sequence three ways.
//
//   - Batched: one MonteCarloMaxEdgesBatch call — one SplitMix64 draw per
//     vertex per trial, added to one cut-point histogram bin, serves all 64
//     points (common random numbers).
//   - PerWorker: the kernel this PR replaced — one independent math/rand
//     pass (rand.New + Intn per vertex) per point, worker count hashed into
//     the stream. This is the before/after pair the headline ratio reads.
//   - PerWorkerCRN: the current singleton path once per point — same fast
//     generator, still 64 RNG passes — isolating what batching alone buys
//     on top of the generator swap.
//
// The rngbytes/op metric counts RNG output drawn per operation — trials·V·8
// for the batch against 64·trials·V·8 for either per-worker shape — the
// pass-count asymmetry the batch removes.
func BenchmarkKernelBatchedVsPerWorker(b *testing.B) {
	const vertices, trials = 100000, 8
	degrees := benchDegrees(b, vertices)
	workers := make([]int, 64)
	for i := range workers {
		workers[i] = i + 1
	}
	defer core.SetParallelism(0)
	core.SetParallelism(1) // serial on purpose: measure the kernel, not the budget
	rngBytes := float64(trials) * float64(vertices) * 8
	b.Run("Batched", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, workers, trials, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rngBytes, "rngbytes/op")
	})
	b.Run("PerWorker", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range workers {
				_ = legacyMonteCarloMaxEdges(degrees, w, trials, int64(i))
			}
		}
		b.ReportMetric(float64(len(workers))*rngBytes, "rngbytes/op")
	})
	b.Run("PerWorkerCRN", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range workers {
				if _, err := MonteCarloMaxEdges(degrees, w, trials, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(workers))*rngBytes, "rngbytes/op")
	})
}

func BenchmarkGreedyByDegree100K(b *testing.B) {
	degrees := benchDegrees(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyByDegree(degrees, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomAssign1M(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Random(1000000, 64, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
