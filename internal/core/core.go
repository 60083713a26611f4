// Package core implements the paper's scalability modeling framework for
// distributed machine learning (Ulanov, Simanovsky, Marwah, ICDE 2017).
//
// A distributed algorithm running under the bulk synchronous parallel model
// is a series of supersteps, each a computation phase followed by a
// communication phase with a barrier:
//
//	t(n) = t_cp(n) + t_cm(n)
//
// where t_cp(n) = c(D)/n for data-parallel computation and t_cm(n) depends
// on the message volume and the network topology (package comm). The
// scalability measure is speedup
//
//	s(n) = t(1) / t(n)
//
// which cancels proportional systematic errors, and the optimal cluster size
// is argmax_n s(n).
package core

import (
	"fmt"
	"math"

	"dmlscale/internal/units"
)

// TimeFunc maps a worker count to a phase duration.
type TimeFunc func(n int) units.Seconds

// Model is a per-superstep (or per-iteration) time model of a distributed
// algorithm: total time is computation plus non-overlapping communication,
// exactly as in the paper's t = t_cp + t_cm.
type Model struct {
	// Name identifies the algorithm in reports.
	Name string
	// Computation is t_cp(n).
	Computation TimeFunc
	// Communication is t_cm(n). A nil function means zero communication.
	Communication TimeFunc
}

// Validate reports whether the model can be evaluated.
func (m Model) Validate() error {
	if m.Computation == nil {
		return fmt.Errorf("core: model %q: computation function is nil", m.Name)
	}
	return nil
}

// Time returns t(n) = t_cp(n) + t_cm(n).
func (m Model) Time(n int) units.Seconds {
	t := m.Computation(n)
	if m.Communication != nil {
		t += m.Communication(n)
	}
	return t
}

// Speedup returns s(n) = t(1)/t(n).
func (m Model) Speedup(n int) float64 {
	return m.SpeedupRelative(1, n)
}

// SpeedupRelative returns t(base)/t(n), the speedup of n workers relative to
// base workers. Fig. 3 of the paper plots speedup relative to 50 workers.
func (m Model) SpeedupRelative(base, n int) float64 {
	tb := float64(m.Time(base))
	tn := float64(m.Time(n))
	if tn == 0 {
		if tb == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return tb / tn
}

// Efficiency returns s(n)/n, the average fraction of each worker's capacity
// the algorithm converts into speedup.
func (m Model) Efficiency(n int) float64 {
	return m.Speedup(n) / float64(n)
}

// Point is one sample of a speedup curve.
type Point struct {
	N       int
	Time    units.Seconds
	Speedup float64
}

// Curve is a speedup curve over a set of worker counts.
type Curve struct {
	Name   string
	Points []Point
}

// Workers returns the curve's worker counts.
func (c Curve) Workers() []int {
	ns := make([]int, len(c.Points))
	for i, p := range c.Points {
		ns[i] = p.N
	}
	return ns
}

// Speedups returns the curve's speedup values.
func (c Curve) Speedups() []float64 {
	ss := make([]float64, len(c.Points))
	for i, p := range c.Points {
		ss[i] = p.Speedup
	}
	return ss
}

// Times returns the curve's absolute times as plain float64 seconds.
func (c Curve) Times() []float64 {
	ts := make([]float64, len(c.Points))
	for i, p := range c.Points {
		ts[i] = float64(p.Time)
	}
	return ts
}

// Peak returns the point with the highest speedup; ok is false for an empty
// curve. Ties go to the earlier point (fewer machines).
func (c Curve) Peak() (Point, bool) {
	if len(c.Points) == 0 {
		return Point{}, false
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.Speedup > best.Speedup {
			best = p
		}
	}
	return best, true
}

// SpeedupCurve evaluates the model at each worker count, with speedups
// relative to one worker.
func (m Model) SpeedupCurve(workers []int) (Curve, error) {
	return m.SpeedupCurveRelative(1, workers)
}

// SpeedupCurveRelative evaluates the model at each worker count with
// speedups relative to the given base worker count. Every model this
// module builds prices a point in O(1) — the graph families price their
// whole worker axis at build time — so points are sampled serially.
func (m Model) SpeedupCurveRelative(base int, workers []int) (Curve, error) {
	if err := m.Validate(); err != nil {
		return Curve{}, err
	}
	if base < 1 {
		return Curve{}, fmt.Errorf("core: model %q: base worker count %d < 1", m.Name, base)
	}
	if len(workers) == 0 {
		return Curve{}, fmt.Errorf("core: model %q: no worker counts", m.Name)
	}
	for _, n := range workers {
		if n < 1 {
			return Curve{}, fmt.Errorf("core: model %q: worker count %d < 1", m.Name, n)
		}
	}
	c := Curve{Name: m.Name, Points: make([]Point, len(workers))}
	for i, n := range workers {
		c.Points[i] = Point{N: n, Time: m.Time(n)}
	}
	tb := float64(m.Time(base))
	for i := range c.Points {
		tn := float64(c.Points[i].Time)
		switch {
		case tn != 0:
			c.Points[i].Speedup = tb / tn
		case tb == 0:
			c.Points[i].Speedup = 1
		default:
			c.Points[i].Speedup = math.Inf(1)
		}
	}
	return c, nil
}

// OptimalWorkers returns N = argmax_{1 ≤ n ≤ maxN} s(n) and the speedup
// there. Ties go to the smaller n (fewer machines for the same speedup).
func (m Model) OptimalWorkers(maxN int) (n int, speedup float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if maxN < 1 {
		return 0, 0, fmt.Errorf("core: model %q: maxN %d < 1", m.Name, maxN)
	}
	t1 := float64(m.Time(1))
	bestN, bestS := 1, 1.0
	for k := 1; k <= maxN; k++ {
		tk := float64(m.Time(k))
		var s float64
		if tk == 0 {
			s = math.Inf(1)
		} else {
			s = t1 / tk
		}
		if s > bestS {
			bestN, bestS = k, s
		}
	}
	return bestN, bestS, nil
}

// IsScalable reports whether some k in [2, maxN] achieves s(k) > 1 — the
// paper's definition of a scalable algorithm.
func (m Model) IsScalable(maxN int) (bool, error) {
	n, s, err := m.OptimalWorkers(maxN)
	if err != nil {
		return false, err
	}
	return n > 1 && s > 1, nil
}

// CommComputeCrossover returns the smallest n in [1, maxN] at which
// communication time is at least computation time, i.e. where adding workers
// stops buying compute. ok is false if no such n exists in range.
func (m Model) CommComputeCrossover(maxN int) (n int, ok bool) {
	if m.Communication == nil {
		return 0, false
	}
	for k := 1; k <= maxN; k++ {
		if m.Communication(k) >= m.Computation(k) {
			return k, true
		}
	}
	return 0, false
}

// Range returns the worker counts lo..hi inclusive, a convenience for
// building curves.
func Range(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	ns := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		ns = append(ns, n)
	}
	return ns
}

// PowersOfTwo returns 1, 2, 4, ... up to at most max.
func PowersOfTwo(max int) []int {
	var ns []int
	for n := 1; n <= max; n *= 2 {
		ns = append(ns, n)
	}
	return ns
}

// MinWorkersFor returns the smallest n in [1, maxN] achieving speedup ≥
// target — the answer to the paper's first practitioner question ("how many
// more machines are needed to decrease the run time by a certain amount?").
// ok is false when no n in range reaches the target.
func (m Model) MinWorkersFor(target float64, maxN int) (n int, ok bool) {
	for k := 1; k <= maxN; k++ {
		if m.Speedup(k) >= target {
			return k, true
		}
	}
	return 0, false
}

// EfficiencyCurve returns s(n)/n at each worker count.
func (m Model) EfficiencyCurve(workers []int) []float64 {
	out := make([]float64, len(workers))
	for i, n := range workers {
		out[i] = m.Efficiency(n)
	}
	return out
}

// MinWorkersForTime returns the smallest n in [1, maxN] with t(n) ≤ target
// — the weak-scaling planning primitive ("how many machines keep the run
// time the same as the workload grows?"). ok is false when no n in range is
// fast enough.
func (m Model) MinWorkersForTime(target units.Seconds, maxN int) (n int, ok bool) {
	for k := 1; k <= maxN; k++ {
		if m.Time(k) <= target {
			return k, true
		}
	}
	return 0, false
}
