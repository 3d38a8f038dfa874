package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = "../BENCHMARK.json"

// TestSmoke runs every workload of BENCHMARK.json through both passes at
// smoke length and checks the harness's contract with that file: every
// listed metric is emitted and finite, end-to-end metrics are never 0,
// the metrics that must be 0 are, and no round fails.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	if err := run([]string{"-smoke", "-spec", testSpec, "-json", out}); err != nil {
		t.Fatalf("smoke run: %v", err)
	}
	rep, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	runs := groupRuns(rep)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			got := runs[runKey{w.Name, traced}]
			if len(got) != 1 {
				t.Errorf("%s trace=%t: %d runs, want 1", w.Name, traced, len(got))
				continue
			}
			r := got[0]
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := spec.metrics(traced)
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.Name, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if traced {
				for _, name := range zeroMetrics {
					if v := r.Metrics[name].Value; v != 0 {
						t.Errorf("%s: %s = %v, must be 0", w.Name, name, v)
					}
				}
			}
		}
	}
	// The layers a workload exercises must show up in its ledger.
	nonZero := map[string][]string{
		"round_serial": {"fleet.dials_per_round", "fleet.wire_bytes_per_round", "attest.report_bytes", "core.sim_fingerprint"},
		"fleet_cold":   {"fleet.golden_runs_per_sweep"},
		"stream_mixed": {"stream.segments_per_round", "stream.detect_p50_us", "fleet.release_us"},
		"fed_r2_disk":  {"fed.frames_per_sweep", "fed.wal_appends_per_sweep", "fed.fsyncs_per_sweep", "fed.waves_per_sweep", "fleet.release_us"},
	}
	for w, names := range nonZero {
		for _, r := range runs[runKey{w, true}] {
			for _, name := range names {
				if r.Metrics[name].Value == 0 {
					t.Errorf("%s: %s = 0, but the workload exercises that layer", w, name)
				}
			}
		}
	}
}

// TestSpecNames checks that the names the harness fixes in code exist in
// BENCHMARK.json, and that the file stays inside the contract's limits.
func TestSpecNames(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for name := range exactMetrics {
		if _, ok := spec.find(name); !ok {
			t.Errorf("exact metric %s is not in BENCHMARK.json", name)
		}
	}
	for _, name := range append(append([]string(nil), zeroMetrics...), liveMetrics...) {
		if _, ok := spec.find(name); !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup, ok := spec.find("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or misdeclared: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s has no definition", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// find looks a metric up in either list of the spec.
func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// synthetic builds a run set of one workload and metric with the given
// values, one run per value, all of seed 1.
func synthetic(workload, metric string, traced bool, values ...float64) *report {
	rep := &report{Schema: 1}
	for _, v := range values {
		rep.Runs = append(rep.Runs, &runResult{
			Workload: workload, Trace: traced, Seed: 1, Correct: true, Attempted: 100,
			Metrics: map[string]metricValue{metric: {Value: v}},
		})
	}
	return rep
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	const w = "fleet_warm"
	// A lower-is-better metric with a 10% bound, whatever BENCHMARK.json
	// currently says about the real ones.
	spec.EndToEnd = []metricSpec{{Name: "sweep_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "device_rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}
	old := synthetic(w, "sweep_p50_ms", false, 10.0, 10.1, 9.9, 10.05, 9.95)

	cases := []struct {
		name    string
		new     *report
		verdict string
		fails   bool
	}{
		{"clean +20% shift on a 10% bound fails", synthetic(w, "sweep_p50_ms", false, 12.0, 12.1, 11.9, 12.05, 11.95), verdictRegression, true},
		{"noise only passes", synthetic(w, "sweep_p50_ms", false, 10.1, 9.9, 10.0, 10.15, 9.85), verdictOK, false},
		{"+5% inside the bound passes", synthetic(w, "sweep_p50_ms", false, 10.5, 10.6, 10.4, 10.55, 10.45), verdictOK, false},
		{"a gain passes", synthetic(w, "sweep_p50_ms", false, 8.0, 8.1, 7.9, 8.05, 7.95), verdictOK, false},
		{"spread wider than the bound, overlapping: unresolved", synthetic(w, "sweep_p50_ms", false, 9.0, 13.0, 10.0, 12.0, 8.0), verdictUnresolved, false},
		{"spread wider than the bound, every run worse: regression", synthetic(w, "sweep_p50_ms", false, 14.0, 18.0, 15.0, 20.0, 13.0), verdictRegression, true},
	}
	for _, c := range cases {
		rows, failures := compareReports(spec, old, c.new)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", c.name, len(rows))
		}
		if rows[0].verdict != c.verdict || (len(failures) > 0) != c.fails {
			t.Errorf("%s: verdict %q failures %v, want %q fails=%t", c.name, rows[0].verdict, failures, c.verdict, c.fails)
		}
	}

	// Direction: a throughput that falls 20% is a regression too.
	rows, failures := compareReports(spec,
		synthetic(w, "device_rounds_per_s", false, 8000, 8050, 7950),
		synthetic(w, "device_rounds_per_s", false, 6400, 6450, 6350))
	if len(rows) != 1 || rows[0].verdict != verdictRegression || len(failures) != 1 {
		t.Errorf("throughput -20%%: rows %+v failures %v", rows, failures)
	}

	// A changed fingerprint or exact count for the same seed fails hard,
	// however small the difference.
	for _, metric := range []string{"core.sim_fingerprint", "cpu.retired_per_pass"} {
		same := synthetic(w, metric, true, 123456, 123456)
		rows, failures = compareReports(spec, same, synthetic(w, metric, true, 123456, 123456))
		if len(rows) != 1 || rows[0].verdict != verdictOK || len(failures) != 0 {
			t.Errorf("%s unchanged: rows %+v failures %v", metric, rows, failures)
		}
		rows, failures = compareReports(spec, same, synthetic(w, metric, true, 123456, 123457))
		if len(rows) != 1 || rows[0].verdict != verdictMismatch || len(failures) != 1 {
			t.Errorf("%s changed: rows %+v failures %v", metric, rows, failures)
		}
	}
	// Another seed may legitimately count differently.
	other := synthetic(w, "cpu.retired_per_pass", true, 999)
	other.Runs[0].Seed = 2
	if _, failures = compareReports(spec, synthetic(w, "cpu.retired_per_pass", true, 123456), other); len(failures) != 0 {
		t.Errorf("different seeds compared as a mismatch: %v", failures)
	}

	// A failed round in the new set fails the comparison whatever the
	// timings say.
	bad := synthetic(w, "sweep_p50_ms", false, 10.0, 10.0, 10.0)
	bad.Runs[1].Failed, bad.Runs[1].FailedRoundShare = 1, 0.01
	if _, failures = compareReports(spec, old, bad); len(failures) != 1 {
		t.Errorf("failed round not reported: %v", failures)
	}
}

// TestCompareFiles drives the -compare command end to end on two report
// files.
func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		path := filepath.Join(dir, name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	name := spec.EndToEnd[1].Name
	better := spec.EndToEnd[1].Better
	oldPath := write("old.json", synthetic("fleet_warm", name, false, 100, 101, 99))
	worse := []float64{150, 151, 149}
	if better == "higher" {
		worse = []float64{50, 51, 49}
	}
	var buf bytes.Buffer
	if err := compareFiles(spec, oldPath, write("same.json", synthetic("fleet_warm", name, false, 100.5, 99.5, 100)), &buf); err != nil {
		t.Errorf("noise-only comparison failed: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := compareFiles(spec, oldPath, write("worse.json", synthetic("fleet_warm", name, false, worse...)), &buf); err == nil {
		t.Errorf("a 50%% regression passed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), verdictRegression) {
		t.Errorf("regression not named in the table:\n%s", buf.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
