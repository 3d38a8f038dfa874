package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lofat/internal/attest"
	"lofat/internal/core"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shortens set-up repetition for the self-test; the measured
	// parts shrink with seconds.
	smoke bool
}

// metricValue is one reported number, as the contract's result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's outcome: the contract's result line plus what
// the report file keeps for -compare.
type runResult struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	// FailedRoundShare is Failed/Attempted: 0 at HEAD on every workload.
	FailedRoundShare float64 `json:"failed_round_share"`
	// Windows are the timed windows' correctly classified rounds per
	// second, in order: how steady the run was within itself.
	Windows []float64 `json:"windows,omitempty"`
	// Samples are the sample counts behind the latency metrics.
	Samples map[string]int         `json:"samples"`
	Metrics map[string]metricValue `json:"metrics"`
}

// A run sets its workload up many times: setup_s is the median, and
// the run measures on the last fixture. Set-up takes milliseconds, so it
// repeats until setupBudget (at --seconds 10) is spent, within these
// limits.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 600 * time.Millisecond
)

// setUp builds the workload's scenario and runs its first operation
// (the warm sweep: golden runs cached, pools primed), the way a user
// pays for it before the first timed operation.
func setUp(def workloadDef, seed int64, h hooks) (*scenario, time.Duration, error) {
	start := time.Now()
	sc, err := def.build(seed, h)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	if r := sc.op(); r.failed != 0 {
		sc.close()
		return nil, 0, fmt.Errorf("%s: set-up: %d of %d rounds of the warm operation failed", def.name, r.failed, r.rounds)
	}
	return sc, time.Since(start), nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(def workloadDef, rc runConfig, spec *benchSpec) (*runResult, error) {
	defer def.pin()()
	var sc *scenario
	var setups []float64
	budget := time.Duration(float64(setupBudget) * rc.seconds / 10)
	for begin := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(begin) < budget); {
		if sc != nil {
			sc.close()
		}
		var took time.Duration
		var err error
		if sc, took, err = setUp(def, rc.seed, hooks{}); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if rc.smoke {
			break
		}
	}
	defer sc.close()

	p := planFor(rc.seconds)
	if sc.simOp != nil {
		p = p.halved()
	}
	st := runLoop(p, sc.op, sc.reset)
	sim := &st
	if sc.simOp != nil {
		second := runLoop(p, sc.simOp, nil)
		sim = &second
	}
	roundLat := sc.roundLat(&st)
	var short samples
	if sc.shortMeasure != nil {
		short = sc.shortMeasure(&st)
	} else {
		short = probeShortMeasure(sc.shortest, p.window/2)
	}
	sweeps := st.opSamples(st.ops, 1)

	rounds := float64(st.attempted)
	attempted, failed := st.attempted, st.failed
	if sim != &st {
		attempted += sim.attempted
		failed += sim.failed
	}
	values := map[string]float64{
		"setup_s":             quantile(setups, 0.5),
		"device_rounds_per_s": st.perSecond(st.windowRounds).best("higher"),
		"sweep_p50_ms":        sweeps.quantile(0.5, time.Millisecond).best("lower"),
		"cpu_us_per_round":    st.cpuPerRound().best("lower"),
		"allocs_per_round":    ratio(float64(st.used.mallocs), rounds),
		"round_p50_us":        roundLat.quantile(0.5, time.Microsecond).best("lower"),
		"sim_minstr_per_s":    sim.perSecond(sim.windowInstr).best("higher") / 1e6,
		"short_measure_us":    short.quantile(0.5, time.Microsecond).best("lower"),
	}
	res := newResult(def.name, rc, attempted, failed)
	for _, v := range st.perSecond(st.windowRounds) {
		if math.IsNaN(v) {
			v = 0 // no operation completed in this window
		}
		res.Windows = append(res.Windows, v)
	}
	res.Samples["sweeps"] = len(st.ops)
	res.Samples["rounds"] = roundLat.count()
	res.Samples["short_measures"] = short.count()
	res.Samples["setups"] = len(setups)
	if err := res.fill(spec.EndToEnd, values); err != nil {
		return nil, err
	}
	return res, nil
}

func newResult(workload string, rc runConfig, attempted, failed uint64) *runResult {
	return &runResult{
		Workload:         workload,
		Trace:            rc.trace,
		Seed:             rc.seed,
		Seconds:          rc.seconds,
		Correct:          failed == 0 && attempted > 0,
		Attempted:        attempted,
		Failed:           failed,
		FailedRoundShare: ratio(float64(failed), float64(attempted)),
		Samples:          make(map[string]int),
		Metrics:          make(map[string]metricValue),
	}
}

// fill reports exactly the metrics BENCHMARK.json lists: a value the
// harness did not produce, or one it produced that the file does not
// list, is a bug in the harness, not a measurement.
func (r *runResult) fill(specs []metricSpec, values map[string]float64) error {
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s: no value for metric %s of BENCHMARK.json", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("%s: measured %s, which BENCHMARK.json does not list", r.Workload, name)
		}
	}
	return nil
}

// probeShortMeasure times single attest.Measure calls of a firmware
// under its sweep input, on one goroutine with the fixture idle: the
// fixed device-side cost of one measurement of that firmware. The budget
// is cut into as many stretches as a run has windows, so the probe reads
// like every other metric: the best stretch's median.
func probeShortMeasure(fw *firmware, budget time.Duration) samples {
	var out samples
	for i := range out {
		for start := time.Now(); time.Since(start) < budget/timedWindows || len(out[i]) == 0; {
			t0 := time.Now()
			_, _, err := attest.Measure(fw.prog, core.Config{}, fw.input, maxInstr)
			if err != nil {
				// The fixture measured this firmware at set-up; a failure
				// now would already have failed every round of the run.
				return out
			}
			out[i] = append(out[i], time.Since(t0))
		}
	}
	return out
}

// print writes the human-readable report of one run.
func (r *runResult) print(spec *benchSpec) {
	mode := "end to end"
	if r.Trace {
		mode = "traced, per layer"
	}
	fmt.Printf("workload %s (%s)  seed %d  seconds %g\n", r.Workload, mode, r.Seed, r.Seconds)
	fmt.Printf("  ops_attempted %d  ops_failed %d  failed_round_share %g\n", r.Attempted, r.Failed, r.FailedRoundShare)
	if len(r.Samples) > 0 {
		keys := make([]string, 0, len(r.Samples))
		for k := range r.Samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("  samples:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, r.Samples[k])
		}
		fmt.Println()
	}
	if len(r.Windows) > 0 {
		fmt.Print("  rounds/s per window:")
		for _, w := range r.Windows {
			fmt.Printf(" %.0f", w)
		}
		fmt.Println()
	}
	for _, m := range spec.metrics(r.Trace) {
		v := r.Metrics[m.Name]
		fmt.Printf("  %-36s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
}
