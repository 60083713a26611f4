package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * k
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same runs", tight, tight, "lower", 0.1, "no worse"},
		{"faster", tight, scaled(0.8), "lower", 0.1, "improved"},
		{"throughput up", tight, scaled(1.2), "higher", 0.1, "improved"},
		{"slower past the bound", tight, scaled(1.2), "lower", 0.1, "worse"},
		{"slower within the bound", tight, scaled(1.05), "lower", 0.1, "no worse"},
		{"spread wider than the bound", wide, scaled(1.02), "lower", 0.1, "unresolved"},
		{"every change run worse despite spread", wide, scaled(2), "lower", 0.1, "worse"},
		{"unbounded layer metric up", tight, scaled(1.5), "lower", 0, "worse"},
		{"unbounded layer metric flat", tight, tight, "lower", 0, "no worse"},
		{"too few pairs", tight[:2], scaled(0.8)[:2], "lower", 0.1, "unresolved"},
	} {
		if _, got := judge(c.parent, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if win := winFraction([]float64{1, 2, 3, 4}, []float64{0, 2, 4, 3}, "lower"); win != 0.5 {
		t.Errorf("win fraction %g, want 0.5 (ties count for neither)", win)
	}
}

func TestCompareRecordsPairsBySeedAndFlagsErrors(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	mk := func(seed int64, ops, errRate float64) *record {
		return &record{Schema: schema, Workload: "w", Seed: seed, ErrorRate: errRate,
			Metrics: map[string]metricValue{"ops_per_s": {Value: ops, Unit: "1/s"}}}
	}
	var parent, change []*record
	for s := int64(1); s <= 10; s++ {
		parent = append(parent, mk(s, 100+float64(s%3), 0))
		change = append(change, mk(s, 130+float64(s%3), 0))
	}
	change[3].ErrorRate = 0.01
	parent = append(parent, mk(99, 1, 0)) // no partner: ignored
	rows, err := compareRecords(spec, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]row{}
	for _, r := range rows {
		got[r.Metric] = r
	}
	if r := got["ops_per_s"]; r.Pairs != 10 || r.Win != 1 || r.Verdict != "improved" {
		t.Errorf("ops_per_s row %+v, want 10 pairs all won, improved", r)
	}
	if r := got["error_rate"]; !strings.HasPrefix(r.Verdict, "worse") {
		t.Errorf("error_rate row %+v, want flagged worse", r)
	}
}
