package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/units"
)

// evaluateJobs evaluates a job slice as a stream over the slice and returns
// the results in job order.
func evaluateJobs(ctx context.Context, jobs []Job, parallelism int) []JobResult {
	out := make([]JobResult, len(jobs))
	i := 0
	next := func() (StreamJob, bool) {
		if i >= len(jobs) {
			return StreamJob{}, false
		}
		i++
		return StreamJob{Index: i - 1, Job: jobs[i-1]}, true
	}
	// Each index is emitted exactly once, so the writes never collide.
	EvaluateStreamCtx(ctx, next, parallelism, func(k int, res JobResult) { out[k] = res })
	return out
}

// testModel is a trivial c/n + a·n model.
func testModel(name string, c, a float64) Model {
	return Model{
		Name:          name,
		Computation:   func(n int) units.Seconds { return units.Seconds(c / float64(n)) },
		Communication: func(n int) units.Seconds { return units.Seconds(a * float64(n)) },
	}
}

func TestEvaluateJobsMatchesSerialCurves(t *testing.T) {
	workers := Range(1, 16)
	jobs := make([]Job, 10)
	for i := range jobs {
		c := 100.0 + float64(i)
		name := string(rune('a' + i))
		jobs[i] = Job{
			Name:    name,
			Build:   func(context.Context) (Model, error) { return testModel(name, c, 1), nil },
			Workers: workers,
		}
	}
	got := evaluateJobs(context.Background(), jobs, 4)
	if len(got) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(got), len(jobs))
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Name != jobs[i].Name {
			t.Errorf("result %d out of order: %q", i, res.Name)
		}
		c := 100.0 + float64(i)
		want, err := testModel(res.Name, c, 1).SpeedupCurve(workers)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range res.Curve.Points {
			if p != want.Points[j] {
				t.Errorf("job %d point %d: %+v != serial %+v", i, j, p, want.Points[j])
			}
		}
	}
}

func TestEvaluateJobsIsolatesFailures(t *testing.T) {
	workers := Range(1, 8)
	boom := errors.New("boom")
	jobs := []Job{
		{Name: "ok-1", Build: func(context.Context) (Model, error) { return testModel("ok-1", 10, 1), nil }, Workers: workers},
		{Name: "build-error", Build: func(context.Context) (Model, error) { return Model{}, boom }, Workers: workers},
		{Name: "panics", Build: func(context.Context) (Model, error) { panic("kaboom") }, Workers: workers},
		{Name: "no-builder", Workers: workers},
		{Name: "bad-workers", Build: func(context.Context) (Model, error) { return testModel("bad-workers", 10, 1), nil }, Workers: []int{0}},
		{Name: "ok-2", Build: func(context.Context) (Model, error) { return testModel("ok-2", 10, 1), nil }, Workers: workers},
	}
	results := evaluateJobs(context.Background(), jobs, 3)
	if results[0].Err != nil || results[5].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[5].Err)
	}
	if len(results[0].Curve.Points) != 8 || len(results[5].Curve.Points) != 8 {
		t.Error("healthy curves incomplete")
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("build error not propagated: %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", results[2].Err)
	}
	if results[3].Err == nil || results[4].Err == nil {
		t.Errorf("invalid jobs accepted: %v / %v", results[3].Err, results[4].Err)
	}
}

func TestEvaluateJobsBoundsParallelism(t *testing.T) {
	var active, peak atomic.Int32
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{
			Name: "j",
			Build: func(context.Context) (Model, error) {
				now := active.Add(1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				active.Add(-1)
				return testModel("j", 10, 1), nil
			},
			Workers: []int{1, 2},
		}
	}
	evaluateJobs(context.Background(), jobs, 3)
	if p := peak.Load(); p > 3 {
		t.Errorf("pool ran %d jobs at once, bound is 3", p)
	}
	// Default parallelism runs them all too.
	results := evaluateJobs(context.Background(), jobs, 0)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if len(evaluateJobs(context.Background(), nil, 4)) != 0 {
		t.Error("nil jobs produced results")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3, 0} {
		counts := make([]atomic.Int32, 100)
		ForEachCtx(context.Background(), len(counts), parallelism, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", parallelism, i, c)
			}
		}
	}
	ForEachCtx(context.Background(), 0, 4, func(int) { t.Error("body ran for n = 0") })
}

func TestForEachReRaisesPanics(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if recover() == nil {
			t.Error("panic not re-raised")
		}
		// The other workers keep draining indices after one panics.
		if ran.Load() == 0 {
			t.Error("no bodies ran")
		}
	}()
	ForEachCtx(context.Background(), 50, 4, func(i int) {
		if i == 3 {
			panic("boom")
		}
		ran.Add(1)
	})
}

// TestEvaluateJobsDedupsEqualKeys: jobs promising identical models (equal
// non-empty Key) are evaluated once, wherever in the job order the
// duplicates appear, and every duplicate slot gets the shared curve under
// its own name.
func TestEvaluateJobsDedupsEqualKeys(t *testing.T) {
	workers := Range(1, 8)
	var builds atomic.Int32
	job := func(name, key string, c float64) Job {
		return Job{
			Name: name,
			Key:  key,
			Build: func(context.Context) (Model, error) {
				builds.Add(1)
				return testModel(name, c, 1), nil
			},
			Workers: workers,
		}
	}
	// Duplicates interleave out of order with distinct and unkeyed cells.
	jobs := []Job{
		job("a-1", "A", 100),
		job("b-1", "B", 200),
		job("a-2", "A", 100),
		job("nokey-1", "", 100),
		job("b-2", "B", 200),
		job("a-3", "A", 100),
		job("nokey-2", "", 100),
	}
	results := evaluateJobs(context.Background(), jobs, 2)
	if n := builds.Load(); n != 4 {
		t.Errorf("%d models built, want 4 (A, B and the two unkeyed jobs)", n)
	}
	wantDeduped := map[string]bool{"a-2": true, "a-3": true, "b-2": true}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Name != jobs[i].Name || res.Curve.Name != jobs[i].Name {
			t.Errorf("result %d labeled %q (curve %q), want %q", i, res.Name, res.Curve.Name, jobs[i].Name)
		}
		if res.Deduped != wantDeduped[res.Name] {
			t.Errorf("%s: Deduped = %v, want %v", res.Name, res.Deduped, wantDeduped[res.Name])
		}
		c := 100.0
		if strings.HasPrefix(res.Name, "b") {
			c = 200
		}
		want, err := testModel(res.Name, c, 1).SpeedupCurve(workers)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range res.Curve.Points {
			if p != want.Points[j] {
				t.Errorf("%s point %d: %+v != %+v", res.Name, j, p, want.Points[j])
			}
		}
	}
}

// TestEvaluateJobsDedupFailedRepsRecompute: duplicates of a failed
// representative are evaluated individually, so their errors carry their
// own names exactly as without dedup.
func TestEvaluateJobsDedupFailedRepsRecompute(t *testing.T) {
	var builds atomic.Int32
	bad := func(name string) Job {
		return Job{
			Name: name,
			Key:  "K",
			Build: func(context.Context) (Model, error) {
				builds.Add(1)
				return Model{}, errors.New("bad cell")
			},
			Workers: Range(1, 4),
		}
	}
	results := evaluateJobs(context.Background(), []Job{bad("first"), bad("second"), bad("third")}, 1)
	if n := builds.Load(); n != 3 {
		t.Errorf("%d builds, want 3 (failed representatives do not fan out)", n)
	}
	for i, res := range results {
		if res.Deduped {
			t.Errorf("result %d marked deduped despite failing", i)
		}
		if res.Err == nil || !strings.Contains(res.Err.Error(), res.Name) {
			t.Errorf("result %d: error %v does not carry its own name %q", i, res.Err, res.Name)
		}
	}
}

func TestEvaluateJobsRelativeBase(t *testing.T) {
	jobs := []Job{{
		Name:    "rel",
		Build:   func(context.Context) (Model, error) { return testModel("rel", 100, 0), nil },
		Workers: []int{50, 100},
		Base:    50,
	}}
	res := evaluateJobs(context.Background(), jobs, 1)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if s := res.Curve.Points[0].Speedup; s != 1 {
		t.Errorf("s(base) = %v, want 1", s)
	}
	if s := res.Curve.Points[1].Speedup; s != 2 {
		t.Errorf("s(100 vs 50) = %v, want 2 for pure compute", s)
	}
}
