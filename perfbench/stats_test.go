package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50} // unsorted input is sorted internally
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {0.25, 20}, {0.5, 35}, {0.75, 40}, {1, 50},
		{0.1, 17}, {0.9, 46}, {0.4, 29},
	} {
		if got := percentile([]float64{50, 15, 40, 35, 20}, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", vals, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) (method "exclusive") gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9, 11}, [3]float64{4, 5, 8}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if got := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relativeSpread = %g, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if p, v, ok := tailPercentile(vals, 10); !ok || p != 0.9 || !near(v, 89.1) {
		t.Errorf("100 samples: tail p%g = %g, want p90 = 89.1", 100*p, v)
	}
	if p, _, ok := tailPercentile(make([]float64, 1000), 10); !ok || p != 0.99 {
		t.Errorf("1000 samples: tail p%g, want p99", 100*p)
	}
	if _, _, ok := tailPercentile(make([]float64, 15), 10); ok {
		t.Error("15 samples leave fewer than ten beyond p50")
	}
}

func TestPhaseRateIsTheMedianWindow(t *testing.T) {
	// 10 windows of 1s: ops of 100ms run back to back, except that window 3
	// runs 50 ops of 20ms and window 7 stalls on one op of 1s. The median
	// window reads 10 ops/s.
	p := &phase{window: time.Second}
	add := func(begin, d time.Duration) {
		p.results = append(p.results, opResult{cells: 3})
		p.opTimes = append(p.opTimes, [2]time.Duration{begin, begin + d})
	}
	for w := 0; w < rateWindows; w++ {
		start := time.Duration(w) * time.Second
		switch w {
		case 3:
			for i := 0; i < 50; i++ {
				add(start+time.Duration(i)*20*time.Millisecond, 20*time.Millisecond)
			}
		case 7:
			add(start, time.Second)
		default:
			for i := 0; i < 10; i++ {
				add(start+time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
			}
		}
	}
	// An op straddling two windows counts half in each; one running past
	// the phase counts only its share inside it.
	add(9950*time.Millisecond, 100*time.Millisecond)
	if got := p.rate(func(opResult) int { return 1 }); !near(got, 10) {
		t.Errorf("ops rate %g, want 10", got)
	}
	if got := p.rate(func(r opResult) int { return r.cells }); !near(got, 30) {
		t.Errorf("cells rate %g, want 30", got)
	}
}
