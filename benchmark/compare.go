package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "EXACT MISMATCH"
	verdictInfo       = "" // per-layer metrics carry no bound
)

// compareRow is one workload × metric line of -compare.
type compareRow struct {
	workload, metric, unit string
	old, new               summary
	// worse is the share of the old median by which the new median is
	// worse (negative: better), in the metric's own direction.
	worse   float64
	bound   float64
	verdict string
}

// summary is a run set's median and quartiles of one metric.
type summary struct {
	n        int
	median   float64
	q1, q3   float64
	min, max float64
}

func summarize(values []float64) summary {
	s := summary{n: len(values)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.min, s.max = sorted[0], sorted[len(sorted)-1]
	s.median = quantile(sorted, 0.5)
	s.q1, s.q3 = quartiles(sorted)
	return s
}

// quartiles are the first and third quartile of sorted data, computed as
// Python's statistics.quantiles(data, n=4) computes them (the exclusive
// method), so a spread read here is the spread the driver reads.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.median)
}

// loadReport reads one side of a comparison: a report file, or several
// separated by commas (run sets taken alternately with the other side's
// are merged into one).
func loadReport(paths string) (*report, error) {
	var merged report
	for _, path := range strings.Split(paths, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		merged.Runs = append(merged.Runs, r.Runs...)
	}
	if len(merged.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", paths)
	}
	return &merged, nil
}

// runKey names one workload's runs of one pass in a report.
type runKey struct {
	workload string
	trace    bool
}

func groupRuns(r *report) map[runKey][]*runResult {
	out := make(map[runKey][]*runResult)
	for _, run := range r.Runs {
		k := runKey{run.Workload, run.Trace}
		out[k] = append(out[k], run)
	}
	return out
}

func valuesOf(runs []*runResult, metric string) (all []float64, bySeed map[int64][]float64) {
	bySeed = make(map[int64][]float64)
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			all = append(all, v.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	return all, bySeed
}

// judgeRow applies the regression rule to one end-to-end metric: the new
// median may be worse than the old by at most bound. Where either run
// set spreads wider than the bound the medians cannot settle it, and the
// row is unresolved unless the two sets do not overlap at all.
func judgeRow(old, new summary, better string, bound float64) (worse float64, verdict string) {
	if old.median != 0 {
		worse = (new.median - old.median) / math.Abs(old.median)
	}
	if better == "higher" {
		worse = -worse
	}
	if max(old.spread(), new.spread()) > bound {
		var allBetter, allWorse bool
		if better == "higher" {
			allBetter, allWorse = new.min > old.max, new.max < old.min
		} else {
			allBetter, allWorse = new.max < old.min, new.min > old.max
		}
		switch {
		case allBetter:
			return worse, verdictOK
		case allWorse && worse > bound:
			return worse, verdictRegression
		}
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// exactMismatch reports whether a counted metric read differently in two
// runs of the same seed, within a run set or across the two.
func exactMismatch(old, new map[int64][]float64) bool {
	for seed, vs := range new {
		want := vs[0]
		for _, v := range append(vs[1:], old[seed]...) {
			if v != want {
				return true
			}
		}
	}
	for _, vs := range old {
		for _, v := range vs[1:] {
			if v != vs[0] {
				return true
			}
		}
	}
	return false
}

// compareReports builds every row of the comparison, in BENCHMARK.json's
// order: per workload, the end-to-end metrics, then the per-layer ones.
func compareReports(spec *benchSpec, oldRep, newRep *report) (rows []compareRow, failures []string) {
	oldRuns, newRuns := groupRuns(oldRep), groupRuns(newRep)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			k := runKey{w.Name, traced}
			o, n := oldRuns[k], newRuns[k]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			for _, r := range n {
				if r.Failed != 0 {
					failures = append(failures, fmt.Sprintf("%s: failed_round_share %g in the new run set (seed %d)", w.Name, r.FailedRoundShare, r.Seed))
				}
			}
			for _, m := range spec.metrics(traced) {
				ov, oSeeds := valuesOf(o, m.Name)
				nv, nSeeds := valuesOf(n, m.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				row := compareRow{workload: w.Name, metric: m.Name, unit: m.Unit, old: summarize(ov), new: summarize(nv), bound: m.Bound}
				switch {
				case exactMetrics[m.Name]:
					row.verdict = verdictOK
					if exactMismatch(oSeeds, nSeeds) {
						row.verdict = verdictMismatch
					}
				case traced:
					row.worse, _ = judgeRow(row.old, row.new, m.Better, math.Inf(1))
					row.verdict = verdictInfo
				default:
					row.worse, row.verdict = judgeRow(row.old, row.new, m.Better, m.Bound)
				}
				if row.verdict == verdictRegression || row.verdict == verdictMismatch {
					failures = append(failures, fmt.Sprintf("%s %s: %s", w.Name, m.Name, row.verdict))
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, failures
}

func compareFiles(spec *benchSpec, oldPath, newPath string, w io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	rows, failures := compareReports(spec, oldRep, newRep)
	if len(rows) == 0 {
		return fmt.Errorf("%s and %s share no workload and pass", oldPath, newPath)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tworse by\tbound\tverdict")
	unresolved := 0
	for _, r := range rows {
		bound := ""
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		if r.verdict == verdictUnresolved {
			unresolved++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", r.workload, r.metric, r.unit,
			r.old.render(), r.new.render(), r.worse*100, bound, r.verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d rows, %d unresolved, %d failures\n", len(rows), unresolved, len(failures))
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) or mismatch(es) against %s", len(failures), oldPath)
	}
	return nil
}

func (s summary) render() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.median, s.q1, s.q3, s.n)
}
