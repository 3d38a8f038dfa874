package fleet_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/fleet/faultconn"
	"lofat/internal/workloads"
)

// chaosBudget is the wall-clock bound every chaos sweep scenario must
// finish within: generous against race-detector and CI slowness, but a
// hard ceiling — before the resilience layer a single stalled device
// wedged a sweep forever.
const chaosBudget = 60 * time.Second

// chaosConfig returns a fleet config with tight-but-CI-safe transport
// budgets: 1s per I/O phase, one retry with short backoff, breaker
// tripping on the 2nd consecutive failed round, one sit-out sweep
// between half-open probes.
func chaosConfig(dial fleet.DialFunc) fleet.Config {
	return fleet.Config{
		Dial:              dial,
		Workers:           8,
		ReadTimeout:       time.Second,
		WriteTimeout:      time.Second,
		RetryAttempts:     2,
		RetryBackoff:      10 * time.Millisecond,
		RetryBackoffMax:   50 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerProbeAfter: 1,
	}
}

// plannedDial wraps a fabric dial in faultconn with a mutable
// per-address plan table (mutate with set to heal or break devices
// mid-test).
type plannedDial struct {
	mu    sync.Mutex
	plans map[string]faultconn.Plan
}

func newPlannedDial() *plannedDial { return &plannedDial{plans: make(map[string]faultconn.Plan)} }

func (p *plannedDial) set(addr string, plan faultconn.Plan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plans[addr] = plan
}

func (p *plannedDial) clear(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.plans, addr)
}

func (p *plannedDial) wrap(dial fleet.DialFunc) fleet.DialFunc {
	return faultconn.Wrap(dial, func(addr string) (faultconn.Plan, bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		plan, ok := p.plans[addr]
		return plan, ok
	})
}

// TestChaosSweepMixedFleet sweeps a fleet of honest, attacked, stalled
// and connection-dropping devices and checks that the sweep completes
// in bounded time, that breakers trip on exactly the transport-faulty
// devices, that the attacked devices are quarantined (measurement
// verdict, breaker untouched), and that honest devices' accept counts
// are untouched by the chaos around them. Run under -race in CI.
func TestChaosSweepMixedFleet(t *testing.T) {
	start := time.Now()
	f := newFabric()
	plans := newPlannedDial()
	svc := fleet.NewService(chaosConfig(plans.wrap(f.dial)))
	defer svc.Close()

	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}

	const honest = 8
	var honestIDs []fleet.DeviceID
	for i := 0; i < honest; i++ {
		d := spawnDevice(t, f, pump, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		honestIDs = append(honestIDs, d.id)
	}
	atk, _ := workloads.AttackByName("loop-counter")
	var attackedIDs []fleet.DeviceID
	for i := 0; i < 2; i++ {
		d := spawnDevice(t, f, pump, 100+i, atk.Build(prog))
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		attackedIDs = append(attackedIDs, d.id)
	}
	// Stalled devices deliver 3 bytes of the challenge frame and then
	// swallow the rest: the prover blocks mid-ReadFull, the verifier's
	// report read times out. Dropping devices lose the connection two
	// bytes in.
	var stalledIDs, droppingIDs []fleet.DeviceID
	for i := 0; i < 2; i++ {
		d := spawnDevice(t, f, pump, 200+i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		plans.set(d.addr, faultconn.Plan{StallWriteAfter: 3})
		stalledIDs = append(stalledIDs, d.id)
	}
	for i := 0; i < 2; i++ {
		d := spawnDevice(t, f, pump, 300+i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		plans.set(d.addr, faultconn.Plan{CloseAfter: 2})
		droppingIDs = append(droppingIDs, d.id)
	}
	faulty := append(append([]fleet.DeviceID(nil), stalledIDs...), droppingIDs...)

	// Sweep 1: faulty devices fail (breaker degraded), attacked are
	// rejected and quarantined. Sweep 2: faulty fail again and trip.
	// Sweep 3: tripped devices sit out (breaker-skipped). Sweep 4:
	// half-open probes fire and fail.
	reports := make([]fleet.SweepReport, 0, 4)
	for i := 0; i < 4; i++ {
		reps, err := svc.Sweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", i+1, err)
		}
		if len(reps) != 1 {
			t.Fatalf("sweep %d: %d reports", i+1, len(reps))
		}
		reports = append(reports, reps[0])
	}
	if elapsed := time.Since(start); elapsed > chaosBudget {
		t.Fatalf("chaos sweeps took %v, want < %v", elapsed, chaosBudget)
	}

	if got := reports[0].Errors; got != len(faulty) {
		t.Errorf("sweep 1 errors = %d, want %d", got, len(faulty))
	}
	if got := len(reports[1].NewlyTripped); got != len(faulty) {
		t.Errorf("sweep 2 newly tripped = %d, want %d (%+v)", got, len(faulty), reports[1])
	}
	if got := reports[2].BreakerSkipped; got != len(faulty) {
		t.Errorf("sweep 3 breaker-skipped = %d, want %d (%+v)", got, len(faulty), reports[2])
	}
	if got := reports[3].BreakerProbes; got != len(faulty) {
		t.Errorf("sweep 4 probes = %d, want %d (%+v)", got, len(faulty), reports[3])
	}

	for _, id := range honestIDs {
		st, ok := svc.Device(id)
		if !ok {
			t.Fatalf("honest device %s missing", id)
		}
		if st.Accepted != 4 || st.Quarantined || st.Breaker != fleet.BreakerHealthy || st.TransportErrors != 0 {
			t.Errorf("honest device %s disturbed by chaos: %+v", id, st)
		}
	}
	for _, id := range faulty {
		st, _ := svc.Device(id)
		if st.Breaker != fleet.BreakerTripped {
			t.Errorf("faulty device %s breaker = %v, want tripped", id, st.Breaker)
		}
		if st.Quarantined || st.Rejected != 0 {
			t.Errorf("faulty device %s treated as compromised: %+v (transport faults are not measurement evidence)", id, st)
		}
		if st.TransportErrors == 0 || st.LastError == "" {
			t.Errorf("faulty device %s has no recorded transport failure: %+v", id, st)
		}
	}
	for _, id := range attackedIDs {
		st, _ := svc.Device(id)
		if !st.Quarantined || st.LastClass != attest.ClassLoopCounter {
			t.Errorf("attacked device %s: %+v", id, st)
		}
		if st.Breaker != fleet.BreakerHealthy {
			t.Errorf("attacked device %s breaker = %v; rejection is not a transport fault", id, st.Breaker)
		}
	}

	tripped := svc.Tripped()
	if len(tripped) != len(faulty) {
		t.Errorf("tripped listing = %v, want the %d faulty devices", tripped, len(faulty))
	}
	snap := svc.Metrics()
	if snap.Timeouts == 0 {
		t.Errorf("no timeouts recorded: %v", snap)
	}
	if snap.ConnDrops == 0 {
		t.Errorf("no connection drops recorded: %v", snap)
	}
	if snap.Retries == 0 {
		t.Errorf("no retries recorded: %v", snap)
	}
	if snap.BreakerTrips != uint64(len(faulty)) || snap.Tripped != len(faulty) {
		t.Errorf("breaker counters: %v", snap)
	}
	if snap.BreakerSkips != uint64(len(faulty)) || snap.BreakerProbes != uint64(len(faulty)) {
		t.Errorf("breaker skip/probe counters: %v", snap)
	}
}

// TestBreakerLifecycle walks one device's breaker through the full
// state machine: healthy → degraded (first failure) → tripped (second)
// → open-skip → half-open probe after the device heals → healthy, with
// the accept counter resuming.
func TestBreakerLifecycle(t *testing.T) {
	f := newFabric()
	plans := newPlannedDial()
	svc := fleet.NewService(chaosConfig(plans.wrap(f.dial)))
	defer svc.Close()

	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{w.Input})
	if err != nil {
		t.Fatal(err)
	}
	d := spawnDevice(t, f, w, 0, nil)
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}
	plans.set(d.addr, faultconn.Plan{StallWriteAfter: 3})

	state := func() fleet.DeviceState {
		st, ok := svc.Device(d.id)
		if !ok {
			t.Fatal("device missing")
		}
		return st
	}
	sweep := func() fleet.SweepReport {
		rep, err := svc.SweepProgram(pid, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	sweep() // failure 1
	if st := state(); st.Breaker != fleet.BreakerDegraded || st.ConsecutiveTransportFails != 1 {
		t.Fatalf("after failure 1: %+v", st)
	}
	rep := sweep() // failure 2: trips
	if len(rep.NewlyTripped) != 1 || rep.NewlyTripped[0] != d.id {
		t.Fatalf("trip sweep: %+v", rep)
	}
	if st := state(); st.Breaker != fleet.BreakerTripped {
		t.Fatalf("after failure 2: %+v", st)
	}
	rep = sweep() // open: skipped without paying the timeout budget
	if rep.BreakerSkipped != 1 || rep.Errors != 0 {
		t.Fatalf("open sweep: %+v", rep)
	}

	plans.clear(d.addr) // the device heals
	rep = sweep()       // half-open probe succeeds and closes the breaker
	if rep.BreakerProbes != 1 || rep.Accepted != 1 {
		t.Fatalf("probe sweep: %+v", rep)
	}
	st := state()
	if st.Breaker != fleet.BreakerHealthy || st.ConsecutiveTransportFails != 0 {
		t.Fatalf("after successful probe: %+v", st)
	}
	if rep = sweep(); rep.Accepted != 1 || rep.BreakerProbes != 0 {
		t.Fatalf("post-recovery sweep: %+v", rep)
	}
	if got := svc.Metrics().BreakerResets; got != 1 {
		t.Fatalf("breaker resets = %d, want 1", got)
	}
}

// TestBreakerProbePacingMultiProgram pins the probe cadence to whole
// fleet sweeps: with several programs registered, a tripped device must
// still sit out BreakerProbeAfter full sweeps before its half-open
// probe (the generation counter advances once per Sweep, not once per
// program).
func TestBreakerProbePacingMultiProgram(t *testing.T) {
	f := newFabric()
	plans := newPlannedDial()
	svc := fleet.NewService(chaosConfig(plans.wrap(f.dial)))
	defer svc.Close()

	var faulty simDevice
	for i, name := range []string{"syringe-pump", "bubble-sort", "crc32"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		input := w.Input
		if input == nil {
			input = []uint32{}
		}
		pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{input})
		if err != nil {
			t.Fatal(err)
		}
		d := spawnDevice(t, f, w, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		if name == "syringe-pump" {
			faulty = d
			plans.set(d.addr, faultconn.Plan{StallWriteAfter: 3})
		}
	}

	sweep := func() map[attest.ProgramID]fleet.SweepReport {
		reps, err := svc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		byProg := make(map[attest.ProgramID]fleet.SweepReport, len(reps))
		for _, r := range reps {
			byProg[r.Program] = r
		}
		return byProg
	}
	total := func(field func(fleet.SweepReport) int) func(map[attest.ProgramID]fleet.SweepReport) int {
		return func(m map[attest.ProgramID]fleet.SweepReport) int {
			n := 0
			for _, r := range m {
				n += field(r)
			}
			return n
		}
	}
	probes := total(func(r fleet.SweepReport) int { return r.BreakerProbes })
	skips := total(func(r fleet.SweepReport) int { return r.BreakerSkipped })

	sweep() // failure 1: degraded
	sweep() // failure 2: trips (threshold 2)
	if st, _ := svc.Device(faulty.id); st.Breaker != fleet.BreakerTripped {
		t.Fatalf("device not tripped after 2 failed sweeps: %+v", st)
	}
	m := sweep() // sit-out sweep: must skip, NOT probe, despite 3 programs
	if probes(m) != 0 || skips(m) != 1 {
		t.Fatalf("sit-out sweep: %d probes, %d skips; want 0 probes, 1 skip", probes(m), skips(m))
	}
	m = sweep() // probe sweep
	if probes(m) != 1 {
		t.Fatalf("probe sweep: %d probes, want 1", probes(m))
	}
}

// TestReleaseClosesBreaker covers the recovery path for breakers
// tripped outside sweeps: direct Submit rounds (no sweep generation)
// never fire half-open probes, so an operator Release must close the
// breaker along with lifting quarantine — and the round duration the
// pipeline reports must cover the time the failed attempts actually
// took.
func TestReleaseClosesBreaker(t *testing.T) {
	f := newFabric()
	plans := newPlannedDial()
	svc := fleet.NewService(chaosConfig(plans.wrap(f.dial)))
	defer svc.Close()

	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{w.Input})
	if err != nil {
		t.Fatal(err)
	}
	d := spawnDevice(t, f, w, 0, nil)
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}
	plans.set(d.addr, faultconn.Plan{StallWriteAfter: 3})

	for i := 0; i < 2; i++ { // threshold 2: trips via direct rounds
		out, err := svc.Submit(fleet.Round{Device: d.id, Input: w.Input})
		if err != nil {
			t.Fatal(err)
		}
		if out.Err == nil {
			t.Fatalf("round %d against stalled device succeeded", i)
		}
		if out.Duration <= 0 {
			t.Fatalf("round %d reported no duration despite timing out", i)
		}
	}
	out, err := svc.Submit(fleet.Round{Device: d.id, Input: w.Input})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Skipped || !out.BreakerOpen {
		t.Fatalf("direct round on tripped breaker ran: %+v", out)
	}

	plans.clear(d.addr)
	if !svc.Release(d.id) {
		t.Fatal("release failed")
	}
	if st, _ := svc.Device(d.id); st.Breaker != fleet.BreakerHealthy || st.ConsecutiveTransportFails != 0 {
		t.Fatalf("release left breaker open: %+v", st)
	}
	out, err = svc.Submit(fleet.Round{Device: d.id, Input: w.Input})
	if err != nil || out.Err != nil || !out.Result.Accepted {
		t.Fatalf("post-release round: %+v (err %v)", out, err)
	}
}

// spinSource is a firmware whose golden run burns ~2M instructions —
// reliably past a small service MaxInstructions budget, so its sweep
// fails deterministically at the cache-warm step.
const spinSource = `
main:
	li   t0, 0
	li   t1, 1000000
spin:
	addi t0, t0, 1
	blt  t0, t1, spin
	li   a0, 0
	li   a7, 93
	ecall
`

// TestSweepPartialFailureAggregation checks that one program failing
// its sweep no longer aborts the whole fleet sweep: the healthy
// program's report is returned and the failure comes back aggregated
// in a *SweepError naming the failing program.
func TestSweepPartialFailureAggregation(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{MaxInstructions: 200_000})
	defer svc.Close()

	pump := workloads.SyringePump()
	pumpProg, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pumpID, err := svc.RegisterProgram(pumpProg, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	d := spawnDevice(t, f, pump, 0, nil)
	if err := svc.Enroll(d.id, pumpID, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}

	spinProg, err := asm.Assemble(spinSource)
	if err != nil {
		t.Fatal(err)
	}
	spinID, err := svc.RegisterProgram(spinProg, core.Config{}, [][]uint32{{}})
	if err != nil {
		t.Fatal(err)
	}

	reports, err := svc.Sweep()
	if err == nil {
		t.Fatal("sweep with a budget-exhausting program reported no error")
	}
	var serr *fleet.SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("sweep error is %T (%v), want *fleet.SweepError", err, err)
	}
	if len(serr.Failures) != 1 || serr.Failures[0].Program != spinID {
		t.Fatalf("aggregated failures: %+v", serr.Failures)
	}
	if errors.Is(err, fleet.ErrClosed) {
		t.Fatal("aggregate misreports ErrClosed")
	}
	if len(reports) != 1 || reports[0].Program != pumpID || reports[0].Accepted != 1 {
		t.Fatalf("healthy program's report missing or wrong: %+v", reports)
	}
}

// TestSweepReportsSortedByProgram checks the report ordering contract:
// one report per program, sorted by program ID, regardless of map
// iteration order.
func TestSweepReportsSortedByProgram(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
	defer svc.Close()

	for _, name := range []string{"syringe-pump", "bubble-sort", "crc32"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		input := w.Input
		if input == nil {
			input = []uint32{}
		}
		if _, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{input}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		reports, err := svc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 3 {
			t.Fatalf("round %d: %d reports, want 3", round, len(reports))
		}
		for i := 1; i < len(reports); i++ {
			a, b := reports[i-1].Program, reports[i].Program
			if bytes.Compare(a[:], b[:]) >= 0 {
				t.Fatalf("round %d: reports out of order: %v before %v", round, a, b)
			}
		}
	}
}

// TestChaosStreamedStall drives a streamed sweep with one device that
// stalls mid-open: the per-segment read deadline times the round out
// while the honest devices stream to completion.
func TestChaosStreamedStall(t *testing.T) {
	start := time.Now()
	f := newStreamFabric()
	plans := newPlannedDial()
	cfg := chaosConfig(plans.wrap(f.dial))
	cfg.StreamedSweeps = true
	cfg.StreamSegmentEvents = 8
	svc := fleet.NewService(cfg)
	defer svc.Close()

	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d := f.spawn(t, pump, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}
	stalled := f.spawn(t, pump, 100, nil)
	if err := svc.Enroll(stalled.id, pid, stalled.pub, stalled.addr); err != nil {
		t.Fatal(err)
	}
	plans.set(stalled.addr, faultconn.Plan{StallWriteAfter: 3})

	reports, err := svc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > chaosBudget {
		t.Fatalf("streamed chaos sweep took %v, want < %v", elapsed, chaosBudget)
	}
	rep := reports[0]
	if !rep.Streamed || rep.Accepted != 2 || rep.Errors != 1 {
		t.Fatalf("streamed sweep: %+v", rep)
	}
	if rep.SegmentsVerified == 0 {
		t.Fatalf("honest devices streamed no segments: %+v", rep)
	}
	if svc.Metrics().Timeouts == 0 {
		t.Fatal("stalled streamed round did not time out")
	}
	st, _ := svc.Device(stalled.id)
	if st.Quarantined || st.TransportErrors == 0 {
		t.Fatalf("stalled streamed device: %+v", st)
	}
}

// TestVerifierLocalErrorsDoNotTripBreakers pins the breaker's evidence
// rule from the verifier side: a failure that happens before any bytes
// move (here, per-device streamed golden runs exhausting the
// instruction budget with the shared cache disabled) says nothing
// about the devices, so sweeps error without advancing any breaker —
// a verifier misconfiguration must not mark a healthy fleet unreachable.
func TestVerifierLocalErrorsDoNotTripBreakers(t *testing.T) {
	f := newStreamFabric()
	cfg := chaosConfig(f.dial)
	cfg.StreamedSweeps = true
	cfg.DisableCache = true
	cfg.MaxInstructions = 50 // every golden run fails verifier-side
	svc := fleet.NewService(cfg)
	defer svc.Close()

	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	const K = 3
	var ids []fleet.DeviceID
	for i := 0; i < K; i++ {
		d := f.spawn(t, pump, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, d.id)
	}

	// Enough sweeps to trip every breaker were these failures wrongly
	// attributed to the devices (threshold 2). Cover both protocol
	// paths: the streamed session fails at Open (golden run), the
	// plain exchange completes but Verify cannot compute the golden
	// comparison (Result.VerifierFault).
	sweepers := []func() (fleet.SweepReport, error){
		func() (fleet.SweepReport, error) {
			return svc.RunSweep(fleet.SweepRequest{Program: pid, Input: pump.Input, Streamed: true})
		},
		func() (fleet.SweepReport, error) { return svc.SweepProgram(pid, pump.Input) },
	}
	for i := 0; i < 4; i++ {
		rep, err := sweepers[i%2]()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != K || rep.Rejected != 0 || len(rep.NewlyTripped) != 0 || len(rep.NewlyQuarantined) != 0 {
			t.Fatalf("sweep %d: %+v", i+1, rep)
		}
	}
	for _, id := range ids {
		st, _ := svc.Device(id)
		if st.Breaker != fleet.BreakerHealthy || st.TransportErrors != 0 {
			t.Fatalf("verifier-local failure attributed to device %s: %+v", id, st)
		}
		if st.Quarantined || st.Rejected != 0 {
			t.Fatalf("verifier-local failure became a measurement verdict for %s: %+v", id, st)
		}
	}
	snap := svc.Metrics()
	if snap.LocalErrors != 4*K || snap.BreakerTrips != 0 || snap.Tripped != 0 {
		t.Fatalf("metrics: %v", snap)
	}
}

// TestCorruptedReportNeverAccepted checks wire corruption: a flipped
// byte inside the report frame must never verify — the round ends as a
// protocol error or an unauthenticated rejection, the sweep completes,
// and the honest device is untouched. Crucially the corrupted device
// must NOT be quarantined (an on-path attacker or a flaky link could
// otherwise quarantine honest devices) — the fault feeds its transport
// breaker instead.
func TestCorruptedReportNeverAccepted(t *testing.T) {
	f := newFabric()
	plans := newPlannedDial()
	svc := fleet.NewService(chaosConfig(plans.wrap(f.dial)))
	defer svc.Close()

	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{w.Input})
	if err != nil {
		t.Fatal(err)
	}
	honest := spawnDevice(t, f, w, 0, nil)
	if err := svc.Enroll(honest.id, pid, honest.pub, honest.addr); err != nil {
		t.Fatal(err)
	}
	corrupt := spawnDevice(t, f, w, 1, nil)
	if err := svc.Enroll(corrupt.id, pid, corrupt.pub, corrupt.addr); err != nil {
		t.Fatal(err)
	}
	// Byte 40 of the read stream lands well inside the report payload
	// (the frame header is 5 bytes; the report carries a 64-byte hash
	// and a 64-byte signature), so framing survives but the content is
	// tampered.
	plans.set(corrupt.addr, faultconn.Plan{CorruptReadAt: 40})

	rep, err := svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Fatalf("honest device not accepted: %+v", rep)
	}
	if rep.Rejected+rep.Errors != 1 {
		t.Fatalf("corrupted round neither rejected nor errored: %+v", rep)
	}
	st, _ := svc.Device(corrupt.id)
	if st.Accepted != 0 {
		t.Fatalf("corrupted report was accepted: %+v", st)
	}
	if st.Quarantined || st.ConsecutiveRejects != 0 || st.Rejected != 0 {
		t.Fatalf("wire corruption attributed a measurement verdict to an honest device: %+v", st)
	}
	if st.Breaker != fleet.BreakerDegraded || st.TransportErrors == 0 {
		t.Fatalf("wire corruption did not land in the transport counters: %+v", st)
	}
	if hst, _ := svc.Device(honest.id); hst.Accepted != 1 || hst.Quarantined {
		t.Fatalf("honest device: %+v", hst)
	}

	// Persistent corruption trips the breaker (threshold 2) instead of
	// ever reaching quarantine.
	if _, err := svc.SweepProgram(pid, w.Input); err != nil {
		t.Fatal(err)
	}
	st, _ = svc.Device(corrupt.id)
	if st.Quarantined || st.Breaker != fleet.BreakerTripped {
		t.Fatalf("persistently corrupted device: %+v, want tripped breaker and no quarantine", st)
	}
}
