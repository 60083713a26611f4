package main

import (
	"bytes"
	"testing"
)

// generators renders each workload's whole input set for one seed.
var generators = map[string]func(seed int64) ([][]byte, error){
	"serve-whatif-warm": func(seed int64) ([][]byte, error) {
		reqs, err := serveRequests(seed, servePool)
		var docs [][]byte
		for _, r := range reqs {
			docs = append(docs, []byte(r.Route), r.Body)
		}
		return docs, err
	},
	"sweep-graph-cold":   func(seed int64) ([][]byte, error) { return sweepSuites(seed, sweepPool) },
	"plan-grid-adaptive": func(seed int64) ([][]byte, error) { return planSuites(seed, planPool) },
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for name, gen := range generators {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
	if len(generators) != len(workloads) {
		t.Errorf("%d generators for %d workloads", len(generators), len(workloads))
	}
}

func TestInputsDecodeToTheirDeclaredShape(t *testing.T) {
	reqs, err := serveRequests(3, servePool)
	if err != nil {
		t.Fatal(err)
	}
	plans, seen := 0, map[string]bool{}
	for _, r := range reqs {
		suite, err := decodeSuite(r.Suite)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := suite.Cells()
		if err != nil || cs.Len() != r.Cells || r.Cells < 4 || r.Cells > 16 {
			t.Errorf("request %s: %v, %d cells, declared %d", suite.Name, err, cs.Len(), r.Cells)
		}
		if r.Route == "plan" {
			plans++
		}
		if seen[string(r.Body)] {
			t.Errorf("duplicate request %s", suite.Name)
		}
		seen[string(r.Body)] = true
	}
	if share := float64(plans) / float64(len(reqs)); share < 0.25 || share > 0.35 {
		t.Errorf("plan share %.2f, want about 0.3", share)
	}
	for name, want := range map[string]int{"sweep-graph-cold": 12, "plan-grid-adaptive": 2025} {
		docs, err := generators[name](3)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			suite, err := decodeSuite(doc)
			if err != nil {
				t.Fatal(err)
			}
			if cs, err := suite.Cells(); err != nil || cs.Len() != want {
				t.Errorf("%s suite %s: %v, want %d cells", name, suite.Name, err, want)
			}
		}
	}
}
