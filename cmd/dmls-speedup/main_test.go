package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// TestFlagScenarioBuildsThroughRegistry: the CLI's flag-assembled scenario
// resolves every protocol name through the one registry, including the
// "none" alias the flag interface documents.
func TestFlagScenarioBuildsThroughRegistry(t *testing.T) {
	known := []string{"linear", "tree", "two-stage-tree", "spark", "ring", "shuffle", "none", "shared-memory"}
	for _, name := range known {
		sc := scenario.Scenario{
			Name: "flags",
			Workload: scenario.WorkloadSpec{
				FlopsPerExample: 6 * 12e6,
				BatchSize:       60000,
				Parameters:      12e6,
				PrecisionBits:   64,
			},
			Hardware: scenario.HardwareSpec{PeakFlops: 105.6e9, Efficiency: 0.8},
			Protocol: scenario.ProtocolSpec{Kind: name, BandwidthBitsPerSec: 1e9},
		}
		model, err := sc.ModelCtx(context.Background())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if model.Time(4) < 0 {
			t.Errorf("%s: negative time", name)
		}
	}
	sc := scenario.Scenario{Name: "bad", Protocol: scenario.ProtocolSpec{Kind: "warp"}}
	if _, err := sc.ModelCtx(context.Background()); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestFamilyFlagValues: every family the -family flag advertises builds for
// a gradient-descent-shaped spec or fails with a clear error (graph
// families need -config).
func TestFamilyFlagValues(t *testing.T) {
	for _, family := range registry.Families() {
		sc := scenario.Scenario{
			Name: family,
			Workload: scenario.WorkloadSpec{
				Family:          family,
				FlopsPerExample: 1e9,
				BatchSize:       100,
				Parameters:      1e6,
			},
			Hardware: scenario.HardwareSpec{PeakFlops: 1e12, Efficiency: 0.5},
			Protocol: scenario.ProtocolSpec{Kind: "tree", BandwidthBitsPerSec: 1e9},
		}
		_, err := sc.ModelCtx(context.Background())
		switch family {
		case "graph-inference", "mrf":
			if err == nil {
				t.Errorf("%s: flag-only scenario accepted without a graph spec", family)
			}
		default:
			if err != nil {
				t.Errorf("%s: %v", family, err)
			}
		}
	}
}

// TestConfigWithoutMaxWorkersUsesMaxFlag: a -config scenario with no
// max_workers of its own is evaluated over 1..-max — the axis the graph
// families price at build — not over the scenario's default 1..16.
func TestConfigWithoutMaxWorkersUsesMaxFlag(t *testing.T) {
	suite, err := scenario.LoadSuite("../../examples/suites/model-family-tour.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc scenario.Scenario
	for _, c := range suite.Scenarios {
		if c.Workload.Family == "graph-inference" {
			sc = c
		}
	}
	if sc.Workload.Graph == nil || sc.Workload.Graph.Vertices != 16000 {
		t.Fatalf("the tour's 16K-vertex graph-inference scenario is missing: %+v", sc)
	}
	sc.MaxWorkers = 0
	path := filepath.Join(t.TempDir(), "gi.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", path, "-max", "24"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"optimal workers: 23 (speedup 9.77)",
		"computation dominates through 24 workers",
		"scalable (s(k) > 1 for some k ≤ 24): true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		if n, err := strconv.Atoi(f[0]); err == nil && n == rows+1 {
			rows++
		}
	}
	if rows != 24 {
		t.Errorf("%d curve rows, want 24 (workers 1..24):\n%s", rows, out)
	}
}
