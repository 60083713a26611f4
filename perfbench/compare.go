package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare is the offline comparator: it reads the result files of a
// parent and a change, taken from alternating paired runs (pairs.sh makes
// them), and prints one row per workload and metric with both medians and
// quartiles, the change's win fraction over the pairs, and a verdict.
//
//	perfbench compare [-bounds BENCHMARK.json] <parent-dir> <change-dir>
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "file with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bounds BENCHMARK.json] <parent-dir> <change-dir>")
		return 2
	}
	rows, err := compareDirs(*boundsPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	printRows(stdout, rows)
	return 0
}

func compareDirs(boundsPath, parentDir, changeDir string) ([]row, error) {
	spec, err := loadSpec(boundsPath)
	if err != nil {
		return nil, err
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return nil, err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return nil, err
	}
	return compareRecords(spec, parent, change)
}

// loadRecords reads every result file in dir.
func loadRecords(dir string) ([]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rec := new(record)
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, rec.Schema, schema)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// row is one compared workload × metric.
type row struct {
	Workload, Metric, Unit string
	Parent, Change         summary
	Pairs                  int
	Win                    float64
	Verdict                string
}

// summary is one side's median and quartiles.
type summary struct {
	Median, Q1, Q3 float64
}

func summarize(vals []float64) summary {
	q1, _, q3, ok := quartiles(vals)
	if !ok {
		q1, q3 = median(vals), median(vals)
	}
	return summary{median(vals), q1, q3}
}

// compareRecords pairs parent and change runs of the same workload, trace
// mode and seed, and compares every metric the spec gives a direction.
// error_rate is compared for every workload and is "worse" whenever the
// change failed more ops than the parent in any way.
func compareRecords(spec benchSpec, parent, change []*record) ([]row, error) {
	dirs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		dirs[m.Name] = m
	}
	type key struct {
		workload string
		trace    bool
	}
	bySeed := func(rs []*record) map[key]map[int64]*record {
		out := map[key]map[int64]*record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if out[k] == nil {
				out[k] = map[int64]*record{}
			}
			out[k][r.Seed] = r
		}
		return out
	}
	ps, cs := bySeed(parent), bySeed(change)
	keys := make([]key, 0, len(ps))
	for k := range ps {
		if cs[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	var rows []row
	for _, k := range keys {
		var seeds []int64
		for s := range ps[k] {
			if cs[k][s] != nil {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		if len(seeds) == 0 {
			continue
		}
		names := map[string]bool{"error_rate": true}
		for _, s := range seeds {
			for n := range ps[k][s].Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			m, ok := dirs[n]
			if !ok && n != "error_rate" {
				return nil, fmt.Errorf("metric %q has no entry in the bounds file", n)
			}
			var pv, cv []float64
			for _, s := range seeds {
				p, c := metricOf(ps[k][s], n), metricOf(cs[k][s], n)
				if math.IsNaN(p) || math.IsNaN(c) {
					continue
				}
				pv, cv = append(pv, p), append(cv, c)
			}
			if len(pv) == 0 {
				continue
			}
			r := row{Workload: k.workload, Metric: n, Unit: m.Unit, Parent: summarize(pv), Change: summarize(cv), Pairs: len(pv)}
			if n == "error_rate" {
				r.Unit, r.Win, r.Verdict = "ratio", winFraction(pv, cv, "lower"), errorVerdict(pv, cv)
			} else {
				r.Win, r.Verdict = judge(pv, cv, m.Better, m.Bound)
			}
			if k.trace {
				r.Workload += " (traced)"
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload has runs on both sides with the same seed")
	}
	return rows, nil
}

// metricOf reads one metric of a record; error_rate is a record field.
func metricOf(r *record, name string) float64 {
	if name == "error_rate" {
		return r.ErrorRate
	}
	if v, ok := r.Metrics[name]; ok {
		return v.Value
	}
	return math.NaN()
}

// winFraction is the share of pairs in which the change reads better;
// ties count for neither side.
func winFraction(parent, change []float64, better string) float64 {
	wins := 0
	for i := range parent {
		if isBetter(change[i], parent[i], better) {
			wins++
		}
	}
	return float64(wins) / float64(len(parent))
}

// isBetter reports whether a reads strictly better than b.
func isBetter(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// minPairs is the fewest paired runs judge gives a verdict on.
const minPairs = 3

// judge gives one metric's verdict over paired runs:
//
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ, in its favour, by more than the parent's own
//     interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the bound (a share of the parent's median), or, for a metric without
//     a bound, the parent wins nine tenths of the pairs by more than its
//     interquartile range;
//   - unresolved: the spread of either side (interquartile range over
//     median) is wider than the bound, unless every change run reads better
//     than every parent run or worse than every one;
//   - no worse: everything else.
//
// Fewer than minPairs pairs have no quartiles to judge by: unresolved.
func judge(parent, change []float64, better string, bound float64) (float64, string) {
	win := winFraction(parent, change, better)
	if min(len(parent), len(change)) < minPairs {
		return win, "unresolved"
	}
	loss := winFraction(change, parent, better)
	p, c := summarize(parent), summarize(change)
	iqr := p.Q3 - p.Q1
	gap := math.Abs(c.Median - p.Median)
	if win >= 0.9 && gap > iqr && isBetter(c.Median, p.Median, better) {
		return win, "improved"
	}
	worse := c.Median - p.Median
	if better == "higher" {
		worse = -worse
	}
	if bound == 0 {
		if loss >= 0.9 && gap > iqr && worse > 0 {
			return win, "worse"
		}
		return win, "no worse"
	}
	allBetter, allWorse := separated(change, parent, better), separated(parent, change, better)
	if math.Max(relativeSpread(parent), relativeSpread(change)) > bound && !allBetter && !allWorse {
		return win, "unresolved"
	}
	if p.Median != 0 && worse/math.Abs(p.Median) > bound {
		return win, "worse"
	}
	return win, "no worse"
}

// separated reports whether every value of a reads better than every
// value of b.
func separated(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if !isBetter(x, y, better) {
				return false
			}
		}
	}
	return true
}

// errorVerdict flags any rise in failed operations.
func errorVerdict(parent, change []float64) string {
	if slicesMax(change) > slicesMax(parent) || median(change) > median(parent) {
		return "worse: error_rate rose"
	}
	return "no worse"
}

func slicesMax(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-32s %-34s %-34s %-34s %5s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "win", "verdict")
	flagged := 0
	for _, r := range rows {
		side := func(s summary) string {
			return fmt.Sprintf("%.4g [%.4g, %.4g] %s", s.Median, s.Q1, s.Q3, r.Unit)
		}
		fmt.Fprintf(w, "%-32s %-34s %-34s %-34s %5d %5.2f  %s\n", r.Workload, r.Metric, side(r.Parent), side(r.Change), r.Pairs, r.Win, r.Verdict)
		if strings.HasPrefix(r.Verdict, "worse") {
			flagged++
		}
	}
	fmt.Fprintf(w, "%d of %d rows worse\n", flagged, len(rows))
}
