package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/partition"
	"dmlscale/internal/units"
)

func batchTestDegrees() []int32 {
	degrees := make([]int32, 2000)
	for i := range degrees {
		degrees[i] = int32(1 + (i*i)%9)
	}
	return degrees
}

// TestGraphInferenceModelBatchedMatchesSingle: a model priced over a whole
// worker axis in one batched kernel pass is bit-identical, point for point,
// to models priced one worker count at a time — common random numbers make
// each estimate a function of its own coordinates only — while paying one
// pass instead of one per point.
func TestGraphInferenceModelBatchedMatchesSingle(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := batchTestDegrees()
	workers := core.Range(1, 16)

	batched, err := GraphInferenceModel(context.Background(), "batched", degrees, 2, 1e9, 3, 42, workers)
	if err != nil {
		t.Fatal(err)
	}
	st := SnapshotCaches()
	if st.KernelBatches != 1 || st.KernelBatchKeys != int64(len(workers)) || st.KernelSingles != 0 {
		t.Errorf("batched build stats = %d batches / %d keys / %d singles, want 1 / %d / 0",
			st.KernelBatches, st.KernelBatchKeys, st.KernelSingles, len(workers))
	}
	if st.Estimates.Misses != int64(len(workers)) {
		t.Errorf("batched build misses = %d, want %d (one per key)", st.Estimates.Misses, len(workers))
	}

	ResetCaches()
	for _, n := range workers {
		// The axis {n} prices n plus the speedup base 1; with 1 cached by
		// the first iteration, every later build fills exactly one key.
		single, err := GraphInferenceModel(context.Background(), "single", degrees, 2, 1e9, 3, 42, []int{n})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := single.Time(n), batched.Time(n); got != want {
			t.Errorf("n=%d: batch of one %v != batched %v", n, got, want)
		}
	}
	if st := SnapshotCaches(); st.KernelSingles != int64(len(workers)) || st.KernelBatches != 0 {
		t.Errorf("one-key builds = %d singles / %d batches, want %d / 0",
			st.KernelSingles, st.KernelBatches, len(workers))
	}
}

// TestGraphModelTableMatchesBatchKernel: the table a build prices is the
// kernel's own output — bit-identical to partition.MonteCarloMaxEdgesBatch
// on the same axis, priced through the model's compute-time formula.
func TestGraphModelTableMatchesBatchKernel(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := batchTestDegrees()
	axis := []int{1, 2, 3, 5, 8, 13, 21, 34}
	model, err := GraphInferenceModel(context.Background(), "table", degrees, 14, 2e9, 4, 17, axis)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := partition.MonteCarloMaxEdgesBatch(context.Background(), degrees, axis, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range axis {
		if got, want := model.Time(n), units.ComputeTime(ests[i].MaxEdges*14, 2e9); got != want {
			t.Errorf("n=%d: table %v != kernel %v", n, got, want)
		}
	}
}

// TestGraphBuildCancelledMidKernel: a build whose context is cancelled
// while its kernel pass runs returns an error satisfying
// errors.Is(err, context.Canceled) — no panic — and leaves no estimate
// cached, so the next build recomputes cleanly.
func TestGraphBuildCancelledMidKernel(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	inKernel := make(chan struct{})
	var once sync.Once
	SetKernelFault(func(KernelCall) KernelFault {
		once.Do(func() { close(inKernel) })
		return KernelFault{Delay: time.Minute}
	})
	defer SetKernelFault(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-inKernel
		cancel()
	}()
	model, err := GraphInferenceModel(ctx, "cancelled", batchTestDegrees(), 2, 1e9, 3, 5, core.Range(1, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if model.Computation != nil {
		t.Error("cancelled build returned a usable model")
	}
	st := SnapshotCaches().Estimates
	if st.Entries != 0 || st.Drops != 8 {
		t.Errorf("estimate cache after a cancelled build = %+v, want 0 entries and 8 drops", st)
	}
	SetKernelFault(nil)
	if _, err := GraphInferenceModel(context.Background(), "retry", batchTestDegrees(), 2, 1e9, 3, 5, core.Range(1, 8)); err != nil {
		t.Fatalf("rebuild after cancellation: %v", err)
	}
}

// TestBatchFillObservesPerKey: the kernel observer sees one call per
// estimate key — never one per batch — with the full coordinates, so a
// checkpoint journal can replay a batch-filled run key by key through
// SeedEstimate and make the resumed batch fully warm.
func TestBatchFillObservesPerKey(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := batchTestDegrees()
	workers := core.Range(1, 8)

	var mu sync.Mutex
	type obsRec struct {
		call  KernelCall
		value float64
	}
	var seen []obsRec
	SetKernelObserver(func(call KernelCall, value float64) {
		mu.Lock()
		seen = append(seen, obsRec{call, value})
		mu.Unlock()
	})
	defer SetKernelObserver(nil)

	model, err := GraphInferenceModel(context.Background(), "observed", degrees, 2, 1e9, 3, 7, workers)
	if err != nil {
		t.Fatal(err)
	}

	if len(seen) != len(workers) {
		t.Fatalf("observer saw %d calls, want %d (one per key)", len(seen), len(workers))
	}
	sort.Slice(seen, func(a, b int) bool { return seen[a].call.Workers < seen[b].call.Workers })
	for i, rec := range seen {
		if rec.call.Workers != workers[i] {
			t.Errorf("observed workers %d, want %d", rec.call.Workers, workers[i])
		}
		if rec.call.Vertices != len(degrees) || rec.call.Trials != 3 || rec.call.Seed != 7 {
			t.Errorf("observed call %+v missing coordinates", rec.call)
		}
	}

	// Replay through SeedEstimate: the batch finds everything cached, so
	// nothing recomputes and nothing re-observes.
	ResetCaches()
	for _, rec := range seen {
		SeedEstimate(rec.call, rec.value)
	}
	observed := len(seen)
	replayed, err := GraphInferenceModel(context.Background(), "replayed", degrees, 2, 1e9, 3, 7, workers)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(replayed.Time(3)), float64(model.Time(3)); got != want {
		t.Errorf("replayed Time(3) = %v, want %v", got, want)
	}
	if len(seen) != observed {
		t.Errorf("replayed batch re-observed %d kernels", len(seen)-observed)
	}
	if st := SnapshotCaches(); st.KernelBatches != 0 || st.KernelSingles != 0 {
		t.Errorf("replayed batch recomputed: %d batches, %d singles", st.KernelBatches, st.KernelSingles)
	}
}

// TestGraphModelAxisNormalizes: the priced axis is the given worker counts
// sorted and deduplicated, plus the speedup base n = 1; exactly those
// points are estimated, and only those can be sampled.
func TestGraphModelAxisNormalizes(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	model, err := GraphInferenceModel(context.Background(), "axis", batchTestDegrees(), 2, 1e9, 1, 3, []int{8, 2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if st := SnapshotCaches().Estimates; st.Misses != 4 {
		t.Errorf("%d estimates for the axis {1, 2, 5, 8}", st.Misses)
	}
	for _, n := range []int{1, 2, 5, 8} {
		if tt := model.Time(n); tt <= 0 {
			t.Errorf("t(%d) = %v", n, tt)
		}
	}
	for _, n := range []int{0, 3, 9} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not priced") {
					t.Errorf("Time(%d) outside the axis: recover() = %v", n, r)
				}
			}()
			model.Time(n)
		}()
	}
}
