package fleet_test

import (
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/monitor"
	"lofat/internal/obs"
	"lofat/internal/sig"
	"lofat/internal/workloads"
)

// fabric is an in-memory device network: each enrolled address maps to
// a prover-side attest.Registry, and dialing spawns a ServeConn
// goroutine on the server end of a synchronous pipe — the same frame
// protocol the TCP transport speaks, without sockets.
type fabric struct {
	mu   sync.Mutex
	regs map[string]*attest.Registry
}

func newFabric() *fabric { return &fabric{regs: make(map[string]*attest.Registry)} }

func (f *fabric) install(addr string, reg *attest.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.regs[addr] = reg
}

func (f *fabric) dial(addr string) (io.ReadWriteCloser, error) {
	f.mu.Lock()
	reg, ok := f.regs[addr]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: no device at %q", addr)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = reg.ServeConn(server)
	}()
	return client, nil
}

// simDevice is one simulated prover: its keys and its fabric address.
type simDevice struct {
	id   fleet.DeviceID
	pub  []byte
	addr string
}

// spawnDevice provisions a prover with fresh keys, optionally armed
// with an adversary, and installs it on the fabric.
func spawnDevice(t testing.TB, f *fabric, w workloads.Workload, i int, adv attest.Adversary) simDevice {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := attest.NewProver(prog, core.Config{}, keys)
	p.Adversary = adv
	reg := attest.NewRegistry()
	reg.Register(p)
	d := simDevice{
		id:   fleet.DeviceID(fmt.Sprintf("%s-%03d", w.Name, i)),
		pub:  keys.Public(),
		addr: fmt.Sprintf("mem://%s/%d", w.Name, i),
	}
	f.install(d.addr, reg)
	return d
}

func newService(f *fabric, cfg fleet.Config) *fleet.Service {
	cfg.Dial = f.dial
	return fleet.NewService(cfg)
}

// TestFleetSweepMixed drives a full attestation sweep over a fleet of
// more than 100 devices on shared firmware — honest devices plus one of
// each Figure 1 attack scenario — and checks the per-device
// classification and quarantine decisions.
func TestFleetSweepMixed(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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

	const honest = 100
	var honestIDs []fleet.DeviceID
	for i := 0; i < honest; i++ {
		d := spawnDevice(t, f, pump, i, nil)
		if err := svc.Enroll(d.id, pumpID, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		honestIDs = append(honestIDs, d.id)
	}

	// One device per pump-based attack scenario. The data-only attack is
	// accepted by design (the paper's stated limitation); auth-bypass
	// under the benign sweep input still perturbs the path, class 1.
	type attacked struct {
		dev    simDevice
		expect attest.Classification
	}
	var attackedDevs []attacked
	for i, spec := range []struct {
		name   string
		expect attest.Classification
	}{
		{"loop-counter", attest.ClassLoopCounter},
		{"auth-bypass", attest.ClassNonControlData},
		{"dop-data-only", attest.ClassAccepted},
	} {
		atk, ok := workloads.AttackByName(spec.name)
		if !ok {
			t.Fatalf("unknown attack %s", spec.name)
		}
		d := spawnDevice(t, f, pump, honest+i, atk.Build(pumpProg))
		if err := svc.Enroll(d.id, pumpID, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		attackedDevs = append(attackedDevs, attacked{dev: d, expect: spec.expect})
	}

	// A second firmware image in the same fleet: the code-pointer
	// victim, with one hijacked device among honest ones.
	atk, _ := workloads.AttackByName("code-pointer")
	victim := atk.Workload
	victimProg, err := victim.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	victimID, err := svc.RegisterProgram(victimProg, core.Config{}, [][]uint32{{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d := spawnDevice(t, f, victim, i, nil)
		if err := svc.Enroll(d.id, victimID, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}
	hijacked := spawnDevice(t, f, victim, 5, atk.Build(victimProg))
	if err := svc.Enroll(hijacked.id, victimID, hijacked.pub, hijacked.addr); err != nil {
		t.Fatal(err)
	}

	if got := svc.FleetSize(); got != honest+3+6 {
		t.Fatalf("fleet size = %d, want %d", got, honest+3+6)
	}

	reports, err := svc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	byProg := map[attest.ProgramID]fleet.SweepReport{}
	for _, r := range reports {
		byProg[r.Program] = r
	}
	pumpRep := byProg[pumpID]
	// 100 honest + data-only accepted; loop-counter and auth-bypass rejected.
	if pumpRep.Accepted != honest+1 || pumpRep.Rejected != 2 || pumpRep.Errors != 0 {
		t.Fatalf("pump sweep: %+v", pumpRep)
	}
	victimRep := byProg[victimID]
	if victimRep.Accepted != 5 || victimRep.Rejected != 1 {
		t.Fatalf("victim sweep: %+v", victimRep)
	}

	for _, id := range honestIDs {
		st, ok := svc.Device(id)
		if !ok || st.Quarantined || st.LastClass != attest.ClassAccepted {
			t.Fatalf("honest device %s: %+v", id, st)
		}
	}
	for _, a := range attackedDevs {
		st, ok := svc.Device(a.dev.id)
		if !ok {
			t.Fatalf("device %s missing", a.dev.id)
		}
		if st.LastClass != a.expect {
			t.Errorf("device %s classified %v, want %v (findings: %v)",
				a.dev.id, st.LastClass, a.expect, st.LastFindings)
		}
		wantQuarantine := a.expect != attest.ClassAccepted
		if st.Quarantined != wantQuarantine {
			t.Errorf("device %s quarantined = %v, want %v", a.dev.id, st.Quarantined, wantQuarantine)
		}
	}
	if st, _ := svc.Device(hijacked.id); st.LastClass != attest.ClassControlFlow || !st.Quarantined {
		t.Errorf("hijacked device: %+v", st)
	}

	snap := svc.Metrics()
	if snap.Verified != uint64(honest+3+6) || snap.Sweeps != 2 {
		t.Fatalf("metrics: %v", snap)
	}
	if snap.ByClass[attest.ClassLoopCounter] != 1 ||
		snap.ByClass[attest.ClassNonControlData] != 1 ||
		snap.ByClass[attest.ClassControlFlow] != 1 {
		t.Fatalf("per-class counts: %v", snap.ByClass)
	}
}

// TestMeasurementCacheAmortization checks the fleet-wide golden-run
// amortization: K devices on one firmware cost exactly one simulation,
// and repeat sweeps add no cache traffic at all (both layers hot).
func TestMeasurementCacheAmortization(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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
	const K = 50
	for i := 0; i < K; i++ {
		d := spawnDevice(t, f, w, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != K {
		t.Fatalf("accepted %d of %d", rep.Accepted, K)
	}
	cache := svc.Cache()
	if cache.Misses() != 1 {
		t.Fatalf("cache misses = %d, want 1 (single golden run for the whole fleet)", cache.Misses())
	}
	if cache.Hits() != K {
		t.Fatalf("cache hits = %d, want %d", cache.Hits(), K)
	}

	// Second sweep: every verifier's private memo is hot, so not even
	// cache lookups happen — and certainly no simulation.
	if _, err := svc.SweepProgram(pid, w.Input); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 || cache.Hits() != K {
		t.Fatalf("repeat sweep touched the cache: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	if got := svc.Metrics().Accepted; got != 2*K {
		t.Fatalf("accepted total = %d, want %d", got, 2*K)
	}
}

// TestCacheConfigIsolation checks that one shared cache serving
// verifiers with different device configurations keeps their golden
// measurements apart: measurements depend on the config (e.g. dedup
// on/off changes the hash), so a shared entry would falsely reject
// honest devices.
func TestCacheConfigIsolation(t *testing.T) {
	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := core.Config{}
	cfgB := core.Config{Monitor: monitor.Config{DisableDedup: true}}
	cache := fleet.NewMeasurementCache()
	for _, cfg := range []core.Config{cfgA, cfgB} {
		p := attest.NewProver(prog, cfg, keys)
		v, err := attest.NewVerifier(prog, cfg, keys.Public(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		v.SetExpectationCache(cache)
		ch, err := v.NewChallenge(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Attest(ch)
		if err != nil {
			t.Fatal(err)
		}
		if res := v.Verify(ch, rep); !res.Accepted {
			t.Fatalf("config %+v: honest device rejected: %v %v", cfg.Monitor, res, res.Findings)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per device config)", cache.Len())
	}
}

// TestQuarantineAndRelease checks the quarantine lifecycle: rejection
// quarantines, quarantined devices are skipped, release restores them.
func TestQuarantineAndRelease(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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
	atk, _ := workloads.AttackByName("loop-counter")
	bad := spawnDevice(t, f, w, 1, atk.Build(prog))
	for _, d := range []simDevice{honest, bad} {
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || len(rep.NewlyQuarantined) != 1 || rep.NewlyQuarantined[0] != bad.id {
		t.Fatalf("first sweep: %+v", rep)
	}

	rep, err = svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Accepted != 1 {
		t.Fatalf("second sweep should skip the quarantined device: %+v", rep)
	}

	// The loop-counter adversary is one-shot and has fired; after an
	// operator release the device attests honestly again.
	if !svc.Release(bad.id) {
		t.Fatal("release failed")
	}
	rep, err = svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 2 || rep.Skipped != 0 {
		t.Fatalf("post-release sweep: %+v", rep)
	}
	if st, _ := svc.Device(bad.id); st.Quarantined || st.ConsecutiveRejects != 0 {
		t.Fatalf("released device state: %+v", st)
	}
}

// TestSubmitBatchConcurrent hammers the bounded pipeline from many
// goroutines at once (run under -race).
func TestSubmitBatchConcurrent(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{Workers: 4, QueueDepth: 2})
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
	const K = 8
	devs := make([]simDevice, K)
	for i := range devs {
		devs[i] = spawnDevice(t, f, w, i, nil)
		if err := svc.Enroll(devs[i].id, pid, devs[i].pub, devs[i].addr); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds := make([]fleet.Round, K)
			for i, d := range devs {
				rounds[i] = fleet.Round{Device: d.id, Input: w.Input}
			}
			outs, err := svc.SubmitBatch(rounds)
			if err != nil {
				errs <- err
				return
			}
			for _, o := range outs {
				if o.Err != nil {
					errs <- o.Err
				} else if !o.Result.Accepted {
					errs <- fmt.Errorf("%s rejected: %v", o.Device, o.Result)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := svc.Metrics().Verified; got != 8*K {
		t.Fatalf("verified = %d, want %d", got, 8*K)
	}
}

// TestScheduler checks the periodic sweeper: it runs sweeps on its own
// and stops cleanly.
func TestScheduler(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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

	stop := svc.StartScheduler(5 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().Sweeps < 2 {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("scheduler never completed two sweeps")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	settled := svc.Metrics().Sweeps
	time.Sleep(20 * time.Millisecond)
	if got := svc.Metrics().Sweeps; got != settled {
		t.Fatalf("sweeps advanced after stop: %d -> %d", settled, got)
	}
	if reports := svc.Reports(); len(reports) < 2 {
		t.Fatalf("retained %d reports, want >= 2", len(reports))
	}
}

// TestInputRotation checks that consecutive sweeps rotate through the
// program's input schedule.
func TestInputRotation(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
	defer svc.Close()

	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]uint32{
		{0xC0FFEE, 2, 5, 3},
		{0xC0FFEE, 1, 4},
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	d := spawnDevice(t, f, w, 0, nil)
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		reports, err := svc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		want := inputs[round%len(inputs)]
		got := reports[0].Input
		if len(got) != len(want) {
			t.Fatalf("round %d input %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d input %v, want %v", round, got, want)
			}
		}
		if reports[0].Accepted != 1 {
			t.Fatalf("round %d not accepted: %+v", round, reports[0])
		}
	}
}

// TestEnrollmentErrors covers registry and service error paths.
func TestEnrollmentErrors(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})

	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProgram(prog, core.Config{}, nil); err == nil {
		t.Error("registering a program with no inputs succeeded")
	}
	pid, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{w.Input})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProgram(prog, core.Config{}, [][]uint32{w.Input}); err == nil {
		t.Error("duplicate program registration succeeded")
	}

	d := spawnDevice(t, f, w, 0, nil)
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err == nil {
		t.Error("duplicate enrolment succeeded")
	}
	if err := svc.Enroll("other", attest.ProgramID{}, d.pub, d.addr); err == nil {
		t.Error("enrolment for unregistered program succeeded")
	}
	out, err := svc.Submit(fleet.Round{Device: "ghost", Input: w.Input})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil {
		t.Error("round for unknown device succeeded")
	}

	svc.Close()
	if _, err := svc.Sweep(); err != fleet.ErrClosed {
		t.Errorf("sweep on closed service: %v", err)
	}
	if _, err := svc.SubmitBatch([]fleet.Round{{Device: d.id}}); err != fleet.ErrClosed {
		t.Errorf("submit on closed service: %v", err)
	}
	svc.Close() // idempotent
}

// TestUnreachableDevice checks that transport failures are recorded as
// errors, not rejections, and never quarantine.
func TestUnreachableDevice(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Enrolled at an address nothing serves.
	if err := svc.Enroll("lost", pid, keys.Public(), "mem://nowhere"); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.SweepProgram(pid, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 || rep.Rejected != 0 {
		t.Fatalf("sweep: %+v", rep)
	}
	st, _ := svc.Device("lost")
	if st.Quarantined || st.TransportErrors != 1 || st.LastError == "" {
		t.Fatalf("device state: %+v", st)
	}
}

// TestReleaseDrainsFlightHistory is the federation-era release
// contract: lifting a quarantine (or forgetting a device for hand-off)
// also drains the device's flight-recorder events, so a device released
// and later re-enrolled — possibly on another node — does not inherit
// stale quarantine/breaker history from its previous life.
func TestReleaseDrainsFlightHistory(t *testing.T) {
	f := newFabric()
	hub := obs.NewHub()
	hub.Flight = obs.NewFlight(256)
	svc := fleet.NewService(fleet.Config{Dial: f.dial, Obs: hub})
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
	atk, _ := workloads.AttackByName("loop-counter")
	bad := spawnDevice(t, f, w, 1, atk.Build(prog))
	for _, d := range []simDevice{honest, bad} {
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.SweepProgram(pid, w.Input); err != nil {
		t.Fatal(err)
	}
	if got := hub.Flight.DeviceEvents(string(bad.id)); len(got) == 0 {
		t.Fatal("attacked device produced no flight events")
	}
	honestEvents := len(hub.Flight.DeviceEvents(string(honest.id)))
	if honestEvents == 0 {
		t.Fatal("honest device produced no flight events")
	}

	if !svc.Release(bad.id) {
		t.Fatal("release failed")
	}
	if got := hub.Flight.DeviceEvents(string(bad.id)); len(got) != 0 {
		t.Fatalf("released device kept %d stale flight events: %+v", len(got), got)
	}
	if got := len(hub.Flight.DeviceEvents(string(honest.id))); got != honestEvents {
		t.Fatalf("release drained a bystander's events: %d → %d", honestEvents, got)
	}

	// Forget (the federation hand-off primitive) drains the same way,
	// and a fresh enrolment under the old ID starts with a clean ring.
	st, ok := svc.Forget(honest.id)
	if !ok {
		t.Fatal("forget failed")
	}
	if got := hub.Flight.DeviceEvents(string(honest.id)); len(got) != 0 {
		t.Fatalf("forgotten device kept %d flight events", len(got))
	}
	if err := svc.EnrollState(st); err != nil {
		t.Fatal(err)
	}
	if got := hub.Flight.DeviceEvents(string(honest.id)); len(got) != 0 {
		t.Fatalf("re-enrolled device inherited %d events", len(got))
	}
}

// TestSweepDevicesSubset pins the federated placement primitive:
// only the named devices are challenged, the rest of the program's
// members sit the round out untouched.
func TestSweepDevicesSubset(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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
	var devs []simDevice
	for i := 0; i < 4; i++ {
		d := spawnDevice(t, f, pump, i, nil)
		if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}

	subset := []fleet.DeviceID{devs[0].id, devs[2].id, "no-such-device"}
	rep, err := svc.RunSweep(fleet.SweepRequest{Program: pid, Input: pump.Input, Devices: subset})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 2 || rep.Accepted != 2 {
		t.Fatalf("subset sweep: devices=%d accepted=%d, want 2/2", rep.Devices, rep.Accepted)
	}
	for i, d := range devs {
		st, ok := svc.Device(d.id)
		if !ok {
			t.Fatalf("device %s missing", d.id)
		}
		wantRounds := uint64(0)
		if i == 0 || i == 2 {
			wantRounds = 1
		}
		if st.Rounds != wantRounds {
			t.Fatalf("device %s: rounds=%d, want %d", d.id, st.Rounds, wantRounds)
		}
	}

	// The empty subset is a no-op round, not an error.
	rep, err = svc.RunSweep(fleet.SweepRequest{Program: pid, Input: pump.Input, Devices: []fleet.DeviceID{}})
	if err != nil || rep.Devices != 0 {
		t.Fatalf("empty subset: devices=%d err=%v", rep.Devices, err)
	}
}

// TestSyncState pins the anti-entropy upsert: replicated policy fields
// converge on the pushed snapshot, identity and enrolment stay local.
func TestSyncState(t *testing.T) {
	f := newFabric()
	svc := newService(f, fleet.Config{})
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
	d := spawnDevice(t, f, pump, 0, nil)
	if err := svc.Enroll(d.id, pid, d.pub, d.addr); err != nil {
		t.Fatal(err)
	}

	push := fleet.DeviceState{
		ID:      d.id,
		Addr:    "mem://bogus/overwritten-identity-must-not-land",
		Program: pid,

		Quarantined:        true,
		ConsecutiveRejects: 3,
		Rounds:             7,
		Accepted:           4,
		Rejected:           3,
		LastClass:          attest.ClassLoopCounter,

		Breaker:                   fleet.BreakerDegraded,
		ConsecutiveTransportFails: 1,
		BreakerGen:                9,
	}
	if !svc.SyncState(push) {
		t.Fatal("SyncState on an enrolled device should succeed")
	}
	st, _ := svc.Device(d.id)
	if !st.Quarantined || st.ConsecutiveRejects != 3 || st.Rounds != 7 ||
		st.Accepted != 4 || st.Rejected != 3 || st.LastClass != attest.ClassLoopCounter ||
		st.Breaker != fleet.BreakerDegraded || st.ConsecutiveTransportFails != 1 || st.BreakerGen != 9 {
		t.Fatalf("policy fields did not converge: %+v", st)
	}
	if st.Addr != d.addr {
		t.Fatalf("SyncState rewrote identity: addr %q → %q", d.addr, st.Addr)
	}

	if svc.SyncState(fleet.DeviceState{ID: "ghost", Program: pid}) {
		t.Fatal("SyncState on an unknown device should report false")
	}
	if svc.SyncState(fleet.DeviceState{ID: d.id}) {
		t.Fatal("SyncState with a mismatched program should report false")
	}
}
