package main

import (
	"fmt"
	"time"
)

// The traced pass of one workload has three parts, each a share of the
// run's --seconds:
//
//  1. the layer ledger (unrolled rounds, then each layer driven alone),
//     which does not depend on the workload and is computed once per
//     process;
//  2. an instrumented re-run of the workload with timing and counting
//     wrappers on the hooks the product code exposes (fleet.Config.Dial,
//     the federation's control-plane DialFunc, fed.NodeConfig.FS);
//  3. a plain and an observability-on re-run, whose difference is what
//     internal/obs costs on this workload.
//
// A per-layer metric whose layer the workload does not exercise reads 0.
const (
	liveShare      = 0.25 // instrumented re-run
	obsShare       = 0.10 // each side of the plain / obs-on pairs
	obsPairs       = 2
	referenceShare = 0.05 // each side of the round_serial reference pairs
	warmShare      = 0.02 // warm-up of every re-run
)

func sharePlan(seconds, share float64) plan {
	return plan{
		warmup: time.Duration(seconds * warmShare * float64(time.Second)),
		window: time.Duration(seconds * share / timedWindows * float64(time.Second)),
	}
}

// liveMetrics are the per-layer metrics the re-runs of parts 2 and 3
// produce. They read 0 unless the workload exercises their layer.
var liveMetrics = []string{
	"stream.segments_per_round", "stream.detect_p50_us",
	"fleet.dials_per_round", "fleet.dial_wait_us", "fleet.read_wait_us", "fleet.wire_bytes_per_round",
	"fleet.cache_hit_ratio", "fleet.golden_runs_per_sweep", "fleet.round_p99_us", "fleet.sweep_p99_ms",
	"fleet.retries", "fleet.transport_failures", "fleet.release_us", "fleet.enroll_us_per_device",
	"fleet.alloc_bytes_per_round",
	"fed.overhead_cpu_us_per_round", "fed.overhead_allocs_per_round", "fed.frames_per_sweep",
	"fed.ctrl_bytes_per_sweep", "fed.ctrl_wait_us_per_sweep", "fed.wal_appends_per_sweep",
	"fed.wal_bytes_per_sweep", "fed.fsyncs_per_sweep", "fed.fsync_p50_us", "fed.compactions",
	"fed.waves_per_sweep", "fed.failed_over", "fed.enroll_us_per_device",
	"obs.on_cpu_us_per_round", "obs.overhead_pct",
}

// ledger memoises part 1 for the process: a full invocation runs six
// traced passes over the same seed and budget.
var ledger struct {
	key string
	lv  *layerValues
}

func layerLedger(rc runConfig, tr *traceLog) (*layerValues, error) {
	key := fmt.Sprintf("%d/%g/%t", rc.seed, rc.seconds, rc.smoke)
	if ledger.key == key {
		return ledger.lv, nil
	}
	// The ledger reconciles within 5%. A smoke pass has too few rounds
	// for its medians to be that steady; it checks the plumbing only.
	tolerance := 0.05
	if rc.smoke {
		tolerance = 0.5
	}
	lv, err := probeLayers(rc, tolerance, tr)
	if err != nil {
		return nil, err
	}
	ledger.key, ledger.lv = key, lv
	return lv, nil
}

// reRunResult is one short re-run of a workload inside a traced pass.
type reRunResult struct {
	st       loopStats
	roundLat samples
	devices  int
	enroll   time.Duration
	// counted is what the services' counters moved by in the timed part.
	counted serviceCounters
	isFed   bool
}

// cpuPerRound charges the whole re-run: its windows are too short for
// the best of them to mean anything.
func (r *reRunResult) cpuPerRound() float64 {
	return ratio(us(r.st.used.cpu), float64(r.st.attempted))
}

func (r *reRunResult) allocsPerRound() float64 {
	return ratio(float64(r.st.used.mallocs), float64(r.st.attempted))
}

// reRunTotals adds up the re-runs of one side of an alternating pair.
type reRunTotals struct {
	used              resources
	attempted, failed uint64
}

func (t *reRunTotals) add(r *reRunResult) {
	t.used.cpu += r.st.used.cpu
	t.used.mallocs += r.st.used.mallocs
	t.attempted += r.st.attempted
	t.failed += r.st.failed
}

func (t *reRunTotals) cpuPerRound() float64 { return ratio(us(t.used.cpu), float64(t.attempted)) }

func (t *reRunTotals) allocsPerRound() float64 {
	return ratio(float64(t.used.mallocs), float64(t.attempted))
}

// reRun sets a workload up with the given hooks, drives it for the plan
// and tears it down. in, when set, is reset after warm-up so it counts
// the timed part only.
func reRun(def workloadDef, rc runConfig, h hooks, p plan, in *instruments) (*reRunResult, error) {
	defer def.pin()()
	sc, _, err := setUp(def, rc.seed, h)
	if err != nil {
		return nil, err
	}
	defer sc.close()
	r := &reRunResult{enroll: sc.enroll, devices: sc.devices, isFed: sc.federated}
	if in != nil {
		in.attach(sc)
	}
	var before serviceCounters
	r.st = runLoop(p, sc.op, func() {
		if sc.reset != nil {
			sc.reset()
		}
		if in != nil {
			in.reset()
		}
		before = sc.counters()
	})
	r.counted = sc.counters().since(before)
	r.roundLat = sc.roundLat(&r.st)
	return r, nil
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(def workloadDef, rc runConfig, spec *benchSpec, tr *traceLog) (*runResult, error) {
	lv, err := layerLedger(rc, tr)
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64, len(spec.PerLayer))
	for k, v := range lv.values {
		values[k] = v
	}
	for _, name := range liveMetrics {
		values[name] = 0
	}
	attempted, failed := lv.attempted, lv.failed

	// capture_suite opens no socket and keeps no registry: its traced
	// pass is the layer ledger.
	if def.name != "capture_suite" {
		var in instruments
		var live *reRunResult
		err := tr.phase(def.name+" instrumented", func() (err error) {
			live, err = reRun(def, rc, in.hooks(), sharePlan(rc.seconds, liveShare), &in)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Plain and observability-on re-runs alternate, so that a drifting
		// machine does not read as the cost of internal/obs.
		var plain, on reRunTotals
		err = tr.phase(def.name+" obs off/on", func() error {
			p := sharePlan(rc.seconds, obsShare/obsPairs)
			for i := 0; i < obsPairs; i++ {
				off, err := reRun(def, rc, hooks{}, p, nil)
				if err != nil {
					return err
				}
				with, err := reRun(def, rc, hooks{hub: fullHub()}, p, nil)
				if err != nil {
					return err
				}
				plain.add(off)
				on.add(with)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		liveValues(values, live, &in)
		values["obs.on_cpu_us_per_round"] = on.cpuPerRound()
		values["obs.overhead_pct"] = 100 * ratio(on.cpuPerRound()-plain.cpuPerRound(), plain.cpuPerRound())
		attempted += live.st.attempted + plain.attempted + on.attempted
		failed += live.st.failed + plain.failed + on.failed
		if live.isFed {
			// The federation's own cost per round is its distance from
			// the same rounds on one service.
			warm, _ := findWorkload("fleet_warm")
			base, err := reRun(warm, rc, hooks{}, sharePlan(rc.seconds, obsShare), nil)
			if err != nil {
				return nil, err
			}
			values["fed.overhead_cpu_us_per_round"] = plain.cpuPerRound() - base.cpuPerRound()
			values["fed.overhead_allocs_per_round"] = plain.allocsPerRound() - base.allocsPerRound()
			attempted += base.st.attempted
			failed += base.st.failed
		}
	}

	res := newResult(def.name, rc, attempted, failed)
	res.Samples["unrolled_rounds"] = len(lv.unrolled.rounds)
	if err := res.fill(spec.PerLayer, values); err != nil {
		return nil, err
	}
	return res, nil
}

// liveValues reads the fleet, stream and fed lines of the ledger off an
// instrumented re-run.
func liveValues(v map[string]float64, r *reRunResult, in *instruments) {
	rounds := float64(r.st.attempted)
	sweeps := float64(len(r.st.ops))
	d := r.counted
	v["fleet.dials_per_round"] = ratio(float64(in.dev.dials), rounds)
	v["fleet.dial_wait_us"] = durationQuantile(in.dev.dialWait, 0.5, time.Microsecond)
	v["fleet.read_wait_us"] = durationQuantile(in.dev.readWait, 0.5, time.Microsecond)
	v["fleet.wire_bytes_per_round"] = ratio(float64(in.dev.bytes), rounds)
	// Every shared-cache miss is a golden run; every other verification
	// was served from a cached expectation (the device verifier's own
	// memo, or the fleet-wide cache behind it).
	v["fleet.cache_hit_ratio"] = 1 - ratio(float64(d.misses), rounds)
	v["fleet.golden_runs_per_sweep"] = ratio(float64(d.misses), sweeps)
	v["fleet.round_p99_us"] = durationQuantile(r.roundLat.all(), 0.99, time.Microsecond)
	v["fleet.sweep_p99_ms"] = durationQuantile(r.st.ops, 0.99, time.Millisecond)
	v["fleet.retries"] = float64(d.retries)
	v["fleet.transport_failures"] = float64(d.transportFailures)
	v["fleet.release_us"] = durationQuantile(in.release, 0.5, time.Microsecond)
	v["fleet.alloc_bytes_per_round"] = ratio(float64(r.st.used.bytes), rounds)
	enroll := ratio(us(r.enroll), float64(r.devices))
	if r.isFed {
		v["fed.enroll_us_per_device"] = enroll
	} else {
		v["fleet.enroll_us_per_device"] = enroll
	}
	if d.streamRounds > 0 {
		v["stream.segments_per_round"] = ratio(float64(d.segmentsTotal), float64(d.streamRounds))
		v["stream.detect_p50_us"] = durationQuantile(in.dev.detect, 0.5, time.Microsecond)
	}
	if !r.isFed {
		return
	}
	// The control plane answers every request with one frame.
	v["fed.frames_per_sweep"] = ratio(2*float64(in.ctrl.writes), sweeps)
	v["fed.ctrl_bytes_per_sweep"] = ratio(float64(in.ctrl.bytes), sweeps)
	v["fed.ctrl_wait_us_per_sweep"] = ratio(us(in.ctrl.waitSum), sweeps)
	v["fed.wal_appends_per_sweep"] = ratio(float64(in.disk.walAppends), sweeps)
	v["fed.wal_bytes_per_sweep"] = ratio(float64(in.disk.walBytes), sweeps)
	v["fed.fsyncs_per_sweep"] = ratio(float64(in.disk.fsyncs), sweeps)
	v["fed.fsync_p50_us"] = durationQuantile(in.disk.fsync, 0.5, time.Microsecond)
	v["fed.compactions"] = float64(in.disk.compactions)
	v["fed.waves_per_sweep"] = ratio(float64(in.waves), float64(in.fedSweeps))
	v["fed.failed_over"] = float64(in.failedOver)
}
