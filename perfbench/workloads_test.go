package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/scenario"
	"dmlscale/internal/serve"
)

// smallWhatIf is a what-if over a 2000-vertex DNS graph, cheap enough for
// a unit test.
func smallWhatIf(t *testing.T) request {
	t.Helper()
	g := scenario.GraphSpec{Family: "dns", Vertices: 2000, Seed: 5}
	doc, err := json.Marshal(scenario.Suite{Name: "small what-if", Sweep: &scenario.Sweep{
		Base: scenario.Scenario{
			Name:       "small",
			Workload:   scenario.WorkloadSpec{Family: "mrf", Graph: &g, Trials: 2, Seed: 5},
			Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
			Protocol:   scenario.ProtocolSpec{Kind: "tree", BandwidthBitsPerSec: 1e9},
			MaxWorkers: 8,
		},
		Protocols:            []string{"tree", "ring"},
		BandwidthsBitsPerSec: []float64{1e9, 3e9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"suite": json.RawMessage(doc)})
	if err != nil {
		t.Fatal(err)
	}
	return request{Route: "sweep", Suite: doc, Body: body, Cells: 4}
}

func TestCorruptedResponseByteIsAFailedOp(t *testing.T) {
	ctx := context.Background()
	req := smallWhatIf(t)
	suite, err := decodeSuite(req.Suite)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := evaluate(ctx, nil, 0, 0, req.query(), suite)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	var corrupt atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if corrupt.Load() {
			body[len(body)/2] ^= 0x01
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()
	w := &serveWorkload{reqs: []request{req}, refs: [][]byte{ref.bytes}, client: ts.Client(), url: ts.URL + "/v1/"}

	clean := w.op(ctx, 0, nil)
	if clean.err != nil {
		t.Fatalf("clean response: %v", clean.err)
	}
	corrupt.Store(true)
	bad := w.op(ctx, 1, nil)
	if bad.err == nil {
		t.Fatal("a response with one flipped byte passed its check")
	}
	rec := &record{}
	tally(rec, []*phase{{results: []opResult{clean, bad}}})
	if rec.Attempted != 2 || rec.Failed != 1 || rec.Correct || rec.ErrorRate != 0.5 {
		t.Errorf("tally: %+v, want 2 attempted, 1 failed, not correct", rec)
	}

	// The traced form of a clean op records every layer it probes.
	corrupt.Store(false)
	tr := newTracer()
	traced := w.op(ctx, 2, tr)
	if traced.err != nil {
		t.Fatal(traced.err)
	}
	spans := spanTimes(tr.snapshot())
	for _, name := range []string{"op", "serve.roundtrip", "inproc", "scenario.evaluate", "scenario.encode", "probe", "scenario.expand", "graph.degrees", "memo.fingerprint", "registry.build", "core.sample"} {
		if spans[name].Count == 0 {
			t.Errorf("traced op recorded no %q span", name)
		}
	}
	if n := spans["registry.build"].Count; n != req.Cells {
		t.Errorf("probe built %d models, want %d", n, req.Cells)
	}
}

func TestEveryBenchmarkMetricIsMeasured(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	p := &phase{results: []opResult{{cells: 1}}, latencies: []float64{1}, opTimes: [][2]time.Duration{{0, time.Millisecond}}, window: time.Second, elapsed: time.Second}
	e2e, layers := map[string]float64{}, map[string]float64{}
	endToEnd(e2e, p, &record{})
	perLayer(layers, p, p, map[string]layerTime{}, 0)
	// runWorkload adds these two to both lists.
	for _, v := range []map[string]float64{e2e, layers} {
		v["error_rate"], v["setup_s"] = 0, 0
	}
	check := func(kind string, list []metricSpec, measured map[string]float64) {
		listed := map[string]bool{}
		for _, m := range list {
			if listed[m.Name] {
				t.Errorf("%s metric %q listed twice", kind, m.Name)
			}
			listed[m.Name] = true
			if _, ok := measured[m.Name]; !ok {
				t.Errorf("%s metric %q is not measured", kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better %q", kind, m.Name, m.Better)
			}
		}
		for name := range measured {
			if !listed[name] && name != "error_rate" && name != "setup_s" {
				t.Errorf("measured %s metric %q is missing from BENCHMARK.json", kind, name)
			}
		}
	}
	if spec.RunSeconds < 1 {
		t.Errorf("run_seconds %d, want at least 1: it is the default --seconds", spec.RunSeconds)
	}
	check("end-to-end", spec.EndToEnd, e2e)
	check("per-layer", spec.PerLayer, layers)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(listed.Workloads), len(workloads))
	}
	for _, w := range listed.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestRoundGateReleasesOnlyBetweenOps(t *testing.T) {
	var inside, releases atomic.Int32
	g := newRoundGate(func() {
		releases.Add(1)
		if n := inside.Load(); n != 0 {
			t.Errorf("release ran with %d clients inside an op", n)
		}
	})
	const rounds = 200
	seen := make([][]int, 2)
	g.join(len(seen))
	var wg sync.WaitGroup
	for c := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer g.leave()
			// Client 1 goes on alone after client 0 stops: leave must
			// let its rounds start.
			for k := 0; k < rounds+10*c; k++ {
				round, _ := g.arrive()
				inside.Add(1)
				seen[c] = append(seen[c], round)
				inside.Add(-1)
			}
		}()
	}
	wg.Wait()
	for k := 0; k < rounds; k++ {
		if seen[0][k] != k || seen[1][k] != k {
			t.Fatalf("op %d ran in rounds %d and %d, want both in %d", k, seen[0][k], seen[1][k], k)
		}
	}
	if n := releases.Load(); n != rounds+10 {
		t.Errorf("%d releases, want %d", n, rounds+10)
	}
}
