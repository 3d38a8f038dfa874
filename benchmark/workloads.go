package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/proggen"
	"lofat/internal/workloads"
)

// scenario is a workload after set-up: one closed-loop operation with
// its correctness oracle, and what the metrics need beside the loop's
// own statistics.
type scenario struct {
	op    func() opResult
	reset func() // runs between warm-up and timing
	close func()
	// simOp, when set, is a second operation timed in a loop of its own
	// after op's: sim_minstr_per_s comes from it, everything else from op.
	simOp func() opResult
	// roundLat returns the device-round latency samples of the timed
	// part, by window.
	roundLat func(st *loopStats) samples
	// shortest is the firmware the short_measure_us probe measures after
	// the timed part; shortMeasure, when set, replaces the probe with
	// samples the operation took itself.
	shortest     *firmware
	shortMeasure func(st *loopStats) samples

	// What a traced run reads beside the loop: the fleet services behind
	// the workload (none, one, or the federation's three), how many
	// devices they hold and how long enrolling them took.
	services  []*fleet.Service
	devices   int
	enroll    time.Duration
	federated bool

	// Observers a traced run sets after set-up: each quarantine release,
	// and each federated sweep's wave and failover counts.
	releaseLat func(time.Duration)
	sweepSeen  func(waves, failedOver int)
}

type workloadDef struct {
	name  string
	build func(seed int64, h hooks) (*scenario, error)
	// procs, when not 0, is the GOMAXPROCS the workload is set up and
	// driven under.
	procs int
}

// round_serial runs on one P. It has one round in flight, so a second P
// adds no work, only hand-offs to a sleeping thread: every Submit, dial,
// accept and read then waits for the other vCPU to wake, and what that
// costs is the host's mood (this guest, over ten minutes: 164-257 us per
// round on two Ps, 151-189 us on one). On one P the goroutines of a round
// take turns on one thread, the layer costs add, and the round's CPU time
// is its wall time.
var workloadDefs = []workloadDef{
	{name: "capture_suite", build: buildCaptureSuite},
	{name: "round_serial", build: buildRoundSerial, procs: 1},
	{name: "fleet_warm", build: buildFleetWarm},
	{name: "fleet_cold", build: buildFleetCold},
	{name: "stream_mixed", build: buildStreamMixed},
	{name: "fed_r2_disk", build: buildFedR2Disk},
}

// pin puts the process under the workload's GOMAXPROCS; the function it
// returns puts back what it found.
func (d workloadDef) pin() (restore func()) {
	if d.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(d.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// ---- capture_suite ---------------------------------------------------

// heavyPumpInput is the long dispense schedule: 8 boluses of 500 steps.
var heavyPumpInput = []uint32{0xC0FFEE, 8, 500, 500, 500, 500, 500, 500, 500, 500}

// genPrograms is how many generated programs join the long set.
const genPrograms = 16

// captured is one program of the capture suite with its pinned honest
// measurement: every timed Measure must reproduce it.
type captured struct {
	name  string
	prog  *asm.Program
	cfg   core.Config
	input []uint32
	want  core.Measurement
	exit  uint32
	instr uint64
}

func newCaptured(name string, prog *asm.Program, cfg core.Config, input []uint32) (*captured, error) {
	c := &captured{name: name, prog: prog, cfg: cfg, input: input}
	var err error
	if c.want, c.exit, err = attest.Measure(prog, cfg, input, maxInstr); err != nil {
		return nil, fmt.Errorf("capture %s: %w", name, err)
	}
	if c.instr, err = retired(prog, cfg, input); err != nil {
		return nil, fmt.Errorf("capture %s: %w", name, err)
	}
	return c, nil
}

// measure runs one attested measurement and checks it against the pin.
func (c *captured) measure() bool {
	got, exit, err := attest.Measure(c.prog, c.cfg, c.input, maxInstr)
	if err != nil || exit != c.exit || got.Hash != c.want.Hash || len(got.Loops) != len(c.want.Loops) {
		return false
	}
	for i := range got.Loops {
		if got.Loops[i].Iterations != c.want.Loops[i].Iterations {
			return false
		}
	}
	return true
}

// captureSets assembles the kernel set (the twelve programs of
// workloads.All2, pump-isr under its own interrupt schedule) and the long
// set (the syringe pump under the heavy schedule, then genPrograms
// seed-derived generated programs).
func captureSets(seed int64) (kernel, long []*captured, err error) {
	for _, w := range workloads.All2() {
		prog, err := w.Assemble()
		if err != nil {
			return nil, nil, err
		}
		var cfg core.Config
		if cfg.IRQ, err = w.Schedule(prog); err != nil {
			return nil, nil, err
		}
		c, err := newCaptured(w.Name, prog, cfg, w.Input)
		if err != nil {
			return nil, nil, err
		}
		kernel = append(kernel, c)
	}
	pump, err := workloads.SyringePump().Assemble()
	if err != nil {
		return nil, nil, err
	}
	heavy, err := newCaptured("syringe-pump-heavy", pump, core.Config{}, heavyPumpInput)
	if err != nil {
		return nil, nil, err
	}
	long = append(long, heavy)
	for i := int64(0); i < genPrograms; i++ {
		name := fmt.Sprintf("gen-%d", seed+i)
		prog, err := asm.Assemble(proggen.GenerateSeeded(seed+i, proggen.Config{}))
		if err != nil {
			return nil, nil, fmt.Errorf("capture %s: %w", name, err)
		}
		c, err := newCaptured(name, prog, core.Config{}, nil)
		if err != nil {
			return nil, nil, err
		}
		long = append(long, c)
	}
	return kernel, long, nil
}

func buildCaptureSuite(seed int64, _ hooks) (*scenario, error) {
	kernel, long, err := captureSets(seed)
	if err != nil {
		return nil, err
	}
	heavy := long[0]
	var longInstr uint64
	for _, c := range long {
		longInstr += c.instr
	}
	kernelLat := make([]time.Duration, 0, 1<<18)
	heavyLat := make([]time.Duration, 0, 1<<14)
	sc := &scenario{close: func() {}}
	// The operation the per-round metrics are charged to measures the
	// programs that are the same under every seed: the kernel set, then
	// the heavy pump. A capture-suite "round" is one measurement, a
	// "sweep" one pass over these thirteen.
	sc.op = func() opResult {
		r := opResult{rounds: uint64(len(kernel) + 1)}
		for _, c := range kernel {
			t0 := time.Now()
			ok := c.measure()
			kernelLat = append(kernelLat, time.Since(t0))
			if !ok {
				r.failed++
			}
		}
		t0 := time.Now()
		ok := heavy.measure()
		heavyLat = append(heavyLat, time.Since(t0))
		if !ok {
			r.failed++
		}
		return r
	}
	// The long set — seed-derived programs included — runs in a loop of
	// its own and yields only the metric that is normalised per
	// instruction, so the generated programs' sizes do not move the
	// others from seed to seed.
	sc.simOp = func() opResult {
		r := opResult{rounds: uint64(len(long)), instr: longInstr}
		for _, c := range long {
			if !c.measure() {
				r.failed++
			}
		}
		return r
	}
	sc.reset = func() {
		kernelLat = kernelLat[:0]
		heavyLat = heavyLat[:0]
	}
	// The device side of a long round: the heavy pump measurement.
	sc.roundLat = func(st *loopStats) samples { return st.opSamples(heavyLat, 1) }
	sc.shortMeasure = func(st *loopStats) samples { return st.opSamples(kernelLat, len(kernel)) }
	return sc, nil
}

// ---- single-service workloads ----------------------------------------

const fleetDevices = 64

func pumpFleet(seed int64, h hooks, n int, cfg fleet.Config) (*fleetFixture, *firmware, error) {
	fw, err := pumpFirmware()
	if err != nil {
		return nil, nil, err
	}
	f, err := newFleetFixture(fixtureOpts{
		firmwares:   []*firmware{fw},
		perFirmware: n,
		seed:        seed,
		hooks:       h,
	}, cfg)
	return f, fw, err
}

func (f *fleetFixture) scenario() *scenario {
	return &scenario{
		close:    f.close,
		reset:    f.lats.reset,
		roundLat: f.lats.windows,
		services: []*fleet.Service{f.svc},
		devices:  len(f.all),
		enroll:   f.enroll,
	}
}

// honestSweep judges a sweep of n honest devices: every one ACCEPTED.
func honestSweep(n int, rep fleet.SweepReport, err error) uint64 {
	if err != nil || rep.Devices != n {
		return uint64(n)
	}
	return uint64(n - min(rep.Accepted, n))
}

func buildRoundSerial(seed int64, h hooks) (*scenario, error) {
	f, fw, err := pumpFleet(seed, h, 1, fleet.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	sc := f.scenario()
	sc.shortest = fw
	round := fleet.Round{Device: f.all[0].id, Input: fw.input}
	sc.op = func() opResult {
		r := opResult{rounds: 1, instr: fw.instr}
		out, err := f.svc.Submit(round)
		if err != nil || out.Err != nil || out.Skipped || !out.Result.Accepted || out.Result.Class != attest.ClassAccepted {
			r.failed = 1
		}
		return r
	}
	// One round in flight: the caller's Submit-to-outcome time is the
	// round latency, worker hand-off included.
	sc.roundLat = func(st *loopStats) samples { return st.opSamples(st.ops, 1) }
	return sc, nil
}

func buildFleetWarm(seed int64, h hooks) (*scenario, error) {
	f, fw, err := pumpFleet(seed, h, fleetDevices, fleet.Config{})
	if err != nil {
		return nil, err
	}
	sc := f.scenario()
	sc.shortest = fw
	id := f.progIDs[fw]
	sc.op = func() opResult {
		rep, err := f.svc.SweepProgram(id, fw.input)
		return opResult{rounds: fleetDevices, failed: honestSweep(fleetDevices, rep, err), instr: fleetDevices * fw.instr}
	}
	return sc, nil
}

// coldSchedule draws a heavy dispense schedule no earlier sweep of this
// run has used: 8 boluses of U[300,500] steps.
type coldSchedule struct {
	rng  *rand.Rand
	seen map[[8]uint32]bool
	// base and perStep give the pump's retired instructions for an
	// 8-bolus schedule as base + perStep*steps (the step loop is the only
	// input-dependent part of the program).
	base, perStep uint64
}

func newColdSchedule(seed int64, prog *asm.Program) (*coldSchedule, error) {
	cs := &coldSchedule{rng: rand.New(rand.NewSource(seed)), seen: make(map[[8]uint32]bool)}
	count := func(steps uint32) (uint64, error) {
		return retired(prog, core.Config{}, []uint32{0xC0FFEE, 8, steps, steps, steps, steps, steps, steps, steps, steps})
	}
	at300, err := count(300)
	if err != nil {
		return nil, err
	}
	at301, err := count(301)
	if err != nil {
		return nil, err
	}
	at500, err := count(500)
	if err != nil {
		return nil, err
	}
	cs.perStep = (at301 - at300) / 8
	cs.base = at300 - 8*300*cs.perStep
	if cs.base+8*500*cs.perStep != at500 {
		return nil, fmt.Errorf("fleet_cold: pump instruction count is not linear in steps (%d, %d, %d)", at300, at301, at500)
	}
	return cs, nil
}

func (cs *coldSchedule) next() (input []uint32, instr uint64) {
	for {
		var steps [8]uint32
		var total uint64
		for i := range steps {
			steps[i] = 300 + uint32(cs.rng.Intn(201))
			total += uint64(steps[i])
		}
		if cs.seen[steps] {
			continue
		}
		cs.seen[steps] = true
		return append([]uint32{0xC0FFEE, 8}, steps[:]...), cs.base + cs.perStep*total
	}
}

func buildFleetCold(seed int64, h hooks) (*scenario, error) {
	f, fw, err := pumpFleet(seed, h, fleetDevices, fleet.Config{})
	if err != nil {
		return nil, err
	}
	cold, err := newColdSchedule(seed, fw.prog)
	if err != nil {
		f.close()
		return nil, err
	}
	sc := f.scenario()
	sc.shortest = fw
	id := f.progIDs[fw]
	sc.op = func() opResult {
		input, instr := cold.next()
		rep, err := f.svc.SweepProgram(id, input)
		// One golden run on the verifier, then one run per device.
		return opResult{rounds: fleetDevices, failed: honestSweep(fleetDevices, rep, err), instr: (fleetDevices + 1) * instr}
	}
	return sc, nil
}

// ---- workloads with armed devices ------------------------------------

// verdicts is what an oracle needs from one sweep over one firmware's
// devices, whichever service produced it.
type verdicts struct {
	devices, accepted, rejected int
	byClass                     map[attest.Classification]int
	newlyQuarantined            map[fleet.DeviceID]bool
}

// judge checks one firmware's sweep against its labels: every armed
// device REJECTED with its attack's classification and quarantined, and
// every honest device ACCEPTED. state looks one device up in the
// registry that holds it. It returns how many device-rounds disagree.
func judge(fwDevices []*simDevice, v verdicts, state func(fleet.DeviceID) (fleet.DeviceState, bool)) uint64 {
	n := len(fwDevices)
	if v.devices != n {
		return uint64(n)
	}
	var failed, honest, armed, classed int
	for _, d := range fwDevices {
		if !d.armed {
			honest++
			continue
		}
		armed++
		classed = v.byClass[d.fw.attack.Expect]
		st, ok := state(d.id)
		if !ok || !st.Quarantined || st.LastClass != d.fw.attack.Expect || !v.newlyQuarantined[d.id] {
			failed++
		}
	}
	// Armed devices are judged one by one above; the honest ones by
	// elimination: the counts must be exactly theirs.
	if v.accepted != honest || v.rejected != armed || classed != armed {
		failed += max(1, abs(honest-v.accepted), abs(armed-v.rejected))
	}
	return uint64(min(failed, n))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func idSet(lists ...[]fleet.DeviceID) map[fleet.DeviceID]bool {
	set := make(map[fleet.DeviceID]bool)
	for _, l := range lists {
		for _, id := range l {
			set[id] = true
		}
	}
	return set
}

const (
	streamPerFirmware      = 21
	streamArmedPerFirmware = 3
)

func buildStreamMixed(seed int64, h hooks) (*scenario, error) {
	fws, err := victimFirmwares()
	if err != nil {
		return nil, err
	}
	f, err := newFleetFixture(fixtureOpts{
		firmwares:        fws,
		perFirmware:      streamPerFirmware,
		armedPerFirmware: streamArmedPerFirmware,
		streamed:         true,
		seed:             seed,
		hooks:            h,
	}, fleet.Config{})
	if err != nil {
		return nil, err
	}
	sc := f.scenario()
	sc.shortest = fws[0]
	byProgram := make(map[attest.ProgramID][]*simDevice)
	var perSweepInstr uint64
	for _, d := range f.all {
		byProgram[f.progIDs[d.fw]] = append(byProgram[f.progIDs[d.fw]], d)
		perSweepInstr += d.fw.instr
		if d.fw.instr < sc.shortest.instr {
			sc.shortest = d.fw
		}
	}
	armed := f.armed()
	total := uint64(len(f.all))
	sc.op = func() opResult {
		r := opResult{rounds: total, instr: perSweepInstr}
		reps, err := f.svc.Sweep()
		if err != nil || len(reps) != len(fws) {
			r.failed = total
		} else {
			for _, rep := range reps {
				r.failed += judge(byProgram[rep.Program], verdicts{
					devices: rep.Devices, accepted: rep.Accepted, rejected: rep.Rejected,
					byClass: rep.ByClass, newlyQuarantined: idSet(rep.NewlyQuarantined),
				}, f.svc.Device)
			}
		}
		// Re-provision: lift the quarantines so the next sweep
		// challenges the armed devices again (each re-arms itself when
		// the challenge arrives).
		for _, d := range armed {
			t0 := time.Now()
			ok := f.svc.Release(d.id)
			if sc.releaseLat != nil {
				sc.releaseLat(time.Since(t0))
			}
			if !ok {
				r.failed = min(r.failed+1, total)
			}
		}
		return r
	}
	return sc, nil
}

const (
	fedDevices = 96
	fedArmed   = 4
)

func buildFedR2Disk(seed int64, h hooks) (*scenario, error) {
	atk, ok := workloads.AttackByName("loop-counter")
	if !ok {
		return nil, fmt.Errorf("attack loop-counter missing from workloads.Attacks")
	}
	fw, err := newFirmware("loop-counter", atk.Workload.Source, atk.Workload.Input, &atk)
	if err != nil {
		return nil, err
	}
	f, err := newFedFixture(fixtureOpts{
		firmwares:        []*firmware{fw},
		perFirmware:      fedDevices,
		armedPerFirmware: fedArmed,
		seed:             seed,
		hooks:            h,
	})
	if err != nil {
		return nil, err
	}
	sc := &scenario{
		close:     f.close,
		reset:     f.lats.reset,
		roundLat:  f.lats.windows,
		shortest:  fw,
		devices:   len(f.all),
		enroll:    f.enroll,
		federated: true,
	}
	for _, n := range f.nodes {
		sc.services = append(sc.services, n.Service())
	}
	armed := f.armed()
	state := func(id fleet.DeviceID) (fleet.DeviceState, bool) {
		st, _, err := f.coord.Device(id)
		return st, err == nil
	}
	sc.op = func() opResult {
		r := opResult{rounds: fedDevices, instr: fedDevices * fw.instr}
		v, err := f.coord.Sweep(f.progID, fw.input, false)
		if err != nil || v.NodesOK != fedNodes || len(v.Uncovered) != 0 {
			r.failed = fedDevices
		} else {
			var quarantined [][]fleet.DeviceID
			for _, ids := range v.NewlyQuarantined {
				quarantined = append(quarantined, ids)
			}
			r.failed = judge(f.all, verdicts{
				devices: v.Devices, accepted: v.Accepted, rejected: v.Rejected,
				byClass: v.ByClass, newlyQuarantined: idSet(quarantined...),
			}, state)
			if sc.sweepSeen != nil {
				sc.sweepSeen(v.Waves, len(v.FailedOver))
			}
		}
		for _, d := range armed {
			t0 := time.Now()
			err := f.coord.Release(d.id)
			if sc.releaseLat != nil {
				sc.releaseLat(time.Since(t0))
			}
			if err != nil {
				r.failed = min(r.failed+1, fedDevices)
			}
		}
		return r
	}
	return sc, nil
}
