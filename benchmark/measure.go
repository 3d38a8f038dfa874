package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// timedWindows is how many equal windows the timed part of a run is cut
// into; every timing metric is computed per window (see windowed.best).
const timedWindows = 8

// plan splits a run's --seconds budget: one tenth warms up (caches
// filled, pools primed), eight tenths are timed in eight windows, and
// the last tenth is left to the single-threaded probes after them.
type plan struct {
	warmup time.Duration
	window time.Duration
}

func planFor(seconds float64) plan {
	w := time.Duration(seconds / 10 * float64(time.Second))
	return plan{warmup: w, window: w}
}

// halved is the plan of each of two loops that share one run's budget.
func (p plan) halved() plan { return plan{warmup: p.warmup / 2, window: p.window / 2} }

func (p plan) timed() time.Duration { return timedWindows * p.window }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resources is a snapshot of the process-wide counters per-round costs
// are charged against.
type resources struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapshot() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (r resources) since(start resources) resources {
	return resources{cpu: r.cpu - start.cpu, mallocs: r.mallocs - start.mallocs, bytes: r.bytes - start.bytes}
}

// opResult is what one closed-loop operation (a sweep, a round, a suite
// pass) reports back to the loop that timed it.
type opResult struct {
	rounds uint64 // device-rounds attempted
	failed uint64 // of those: transport/local error, or verdict ≠ label
	instr  uint64 // nominal simulated instructions retired
}

// loopStats is the outcome of one timed closed loop.
type loopStats struct {
	start     time.Time
	window    time.Duration
	used      resources
	attempted uint64
	failed    uint64
	ops       []time.Duration // per-operation latency, in completion order
	opWindow  []int           // the window each operation completed in
	// Per window: rounds attempted and correctly classified, nominal
	// instructions retired, and CPU time.
	windowAttempted [timedWindows]uint64
	windowRounds    [timedWindows]uint64
	windowInstr     [timedWindows]uint64
	windowCPU       [timedWindows]time.Duration
	// windowBusy is the time the window's operations took, start to
	// verdict. Operations run back to back, so it is the wall time their
	// rounds were completed in — without the error of cutting a sweep's
	// worth of rounds at a window's edge.
	windowBusy [timedWindows]time.Duration
}

// runLoop warms up, then runs op back to back — one in flight — for the
// plan's timed part. The resource snapshots bracket exactly the timed
// operations; reset runs between warm-up and timing.
func runLoop(p plan, op func() opResult, reset func()) loopStats {
	for start := time.Now(); time.Since(start) < p.warmup; {
		op()
	}
	if reset != nil {
		reset()
	}
	st := loopStats{window: p.window, ops: make([]time.Duration, 0, 1<<16), opWindow: make([]int, 0, 1<<16)}
	total := p.timed()
	before := snapshot()
	st.start = time.Now()
	lastW, lastCPU := 0, before.cpu
	for {
		t0 := time.Now()
		if t0.Sub(st.start) >= total {
			break
		}
		r := op()
		done := time.Now()
		w := st.windowOf(done)
		if w != lastW {
			// The CPU time since the last boundary belongs to the window
			// that just ended.
			now := cpuTime()
			st.windowCPU[lastW] += now - lastCPU
			lastW, lastCPU = w, now
		}
		st.ops = append(st.ops, done.Sub(t0))
		st.opWindow = append(st.opWindow, w)
		st.attempted += r.rounds
		st.failed += r.failed
		st.windowAttempted[w] += r.rounds
		st.windowRounds[w] += r.rounds - r.failed
		st.windowInstr[w] += r.instr
		st.windowBusy[w] += done.Sub(t0)
	}
	after := snapshot()
	st.windowCPU[lastW] += after.cpu - lastCPU
	st.used = after.since(before)
	return st
}

// windowOf is the window a moment of the timed part falls in. An
// operation that straddles the end of the last window still counts
// there: it started inside the timed part.
func (st *loopStats) windowOf(t time.Time) int {
	return min(int(t.Sub(st.start)/st.window), timedWindows-1)
}

// windowed is one metric computed in each window on its own. A window
// without samples carries NaN.
type windowed [timedWindows]float64

// best is the run's value of a windowed metric: the best window. On a
// shared box interference comes in bursts of about a second and only
// ever slows the system down, so the best of the windows is what the
// system does when it is left alone, and it repeats from run to run far
// better than the median window does (a third to a half of the spread,
// measured). A change that makes every window slower still shows in
// full.
func (w windowed) best(better string) float64 {
	out := math.NaN()
	for _, v := range w {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(out) || (better == "higher" && v > out) || (better != "higher" && v < out) {
			out = v
		}
	}
	if math.IsNaN(out) {
		return 0
	}
	return out
}

// perSecond is count per second of operation time in each window.
func (st *loopStats) perSecond(counts [timedWindows]uint64) windowed {
	var out windowed
	for i, c := range counts {
		out[i] = math.NaN()
		if st.windowBusy[i] > 0 {
			out[i] = float64(c) / st.windowBusy[i].Seconds()
		}
	}
	return out
}

// cpuPerRound is CPU microseconds per attempted round in each window.
func (st *loopStats) cpuPerRound() windowed {
	var out windowed
	for i := range out {
		out[i] = math.NaN()
		if n := st.windowAttempted[i]; n > 0 {
			out[i] = float64(st.windowCPU[i]) / float64(time.Microsecond) / float64(n)
		}
	}
	return out
}

// samples are latency samples sorted into the windows they completed in.
type samples [timedWindows][]time.Duration

// opSamples sorts samples an operation took itself — perOp of them each
// time, in order — into the windows of their operations.
func (st *loopStats) opSamples(all []time.Duration, perOp int) samples {
	var out samples
	for i, d := range all {
		if op := i / perOp; op < len(st.opWindow) {
			w := st.opWindow[op]
			out[w] = append(out[w], d)
		}
	}
	return out
}

func (s samples) count() int { return len(s.all()) }

// all pools the windows' samples.
func (s samples) all() []time.Duration {
	var out []time.Duration
	for _, w := range s {
		out = append(out, w...)
	}
	return out
}

// quantile is the q-quantile of each window's samples in unit.
func (s samples) quantile(q float64, unit time.Duration) windowed {
	var out windowed
	for i, w := range s {
		out[i] = math.NaN()
		if len(w) > 0 {
			out[i] = durationQuantile(w, q, unit)
		}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func durationQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// ratio is a/b, or 0 when the layer did no work (b == 0): a per-layer
// metric reads 0 on a workload that does not exercise its layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeBatch runs fn until at least budget has passed and reports the
// mean time of one call. It is the sampling loop of the layer probes,
// whose single calls are too short to time one by one: calls run in
// chunks that double while a chunk is short, so that reading the clock
// does not show in a call of a few hundred nanoseconds.
func timeBatch(budget time.Duration, fn func()) time.Duration {
	fn() // warm
	calls, chunk := 0, 1
	start := time.Now()
	for {
		for i := 0; i < chunk; i++ {
			fn()
		}
		calls += chunk
		el := time.Since(start)
		if el >= budget {
			return el / time.Duration(calls)
		}
		if el < budget/8 {
			chunk *= 2
		}
	}
}

// probeBatches is how many batches one probe times.
const probeBatches = 5

// medianOf times probeBatches batches within budget and reports the
// median batch mean — steadier than one long mean when the scheduler
// steals a slice.
func medianOf(budget time.Duration, fn func()) time.Duration {
	xs := make([]float64, probeBatches)
	for i := range xs {
		xs[i] = float64(timeBatch(budget/probeBatches, fn))
	}
	return time.Duration(quantile(xs, 0.5))
}

// scratchRoot is where the benchmark keeps what it writes at run time:
// inside the working directory (the checkout), never outside it.
const scratchRoot = ".bench_tmp"

// scratchDir makes a fresh directory for one fixture.
func scratchDir(kind string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, kind+"-")
}
