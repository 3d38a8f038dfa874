package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/fed"
	"lofat/internal/fed/faultfs"
	"lofat/internal/fleet"
	"lofat/internal/obs"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/workloads"
)

// maxInstr bounds every simulated run the harness starts itself.
const maxInstr = 50_000_000

// firmware is one program image a fleet runs, with the input its sweeps
// challenge and, for victim programs, the Figure 1 attack armed devices
// mount against it.
type firmware struct {
	name   string
	prog   *asm.Program
	input  []uint32
	attack *workloads.Attack // nil: no device of this firmware is armed
	// instr is the retired-instruction count of one honest run on input.
	instr uint64
}

func newFirmware(name, source string, input []uint32, atk *workloads.Attack) (*firmware, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("firmware %s: %w", name, err)
	}
	fw := &firmware{name: name, prog: prog, input: input, attack: atk}
	if fw.instr, err = retired(prog, core.Config{}, input); err != nil {
		return nil, fmt.Errorf("firmware %s: %w", name, err)
	}
	return fw, nil
}

// retired runs the program once, bare, and reports how many instructions
// it retires — the nominal simulated work of one honest device-round.
func retired(prog *asm.Program, devCfg core.Config, input []uint32) (uint64, error) {
	mach, err := cpu.AcquireMachine(prog, cpu.LoadOptions{})
	if err != nil {
		return 0, err
	}
	defer cpu.ReleaseMachine(mach)
	mach.CPU.Input = input
	mach.CPU.IRQ = devCfg.IRQ
	if err := mach.CPU.Run(maxInstr); err != nil {
		return 0, err
	}
	return mach.CPU.Retired, nil
}

// pumpFirmware is the syringe pump under its benign default input.
func pumpFirmware() (*firmware, error) {
	w := workloads.SyringePump()
	return newFirmware("syringe-pump", w.Source, w.Input, nil)
}

// victimFirmwares are the three Figure 1 victim programs with their
// attack-scenario inputs. auth-bypass and loop-counter both attack the
// syringe pump; a fleet registers a firmware image once, so the
// auth-bypass fleet runs a second pump build that differs from the
// first by one trailing nop (same labels, same behaviour, another
// program ID).
func victimFirmwares() ([]*firmware, error) {
	var out []*firmware
	for _, name := range []string{"auth-bypass", "loop-counter", "code-pointer"} {
		atk, ok := workloads.AttackByName(name)
		if !ok {
			return nil, fmt.Errorf("attack %q missing from workloads.Attacks", name)
		}
		src := atk.Workload.Source
		if name == "auth-bypass" {
			src += "\n\tnop\n"
		}
		fw, err := newFirmware(name, src, atk.Workload.Input, &atk)
		if err != nil {
			return nil, err
		}
		out = append(out, fw)
	}
	return out, nil
}

// simDevice is one simulated prover: an in-process attest.Server (or
// stream server) on its own loopback TCP listener, with its own key.
type simDevice struct {
	id    fleet.DeviceID
	fw    *firmware
	armed bool
	keys  *sig.KeyStore
	addr  string
	srv   *attest.Server

	// busy serialises attestations on an armed device: the device is
	// one core, and a streamed run the verifier cut off may still be
	// stepping when the next challenge arrives. Each attestation of an
	// armed device starts from a freshly built (one-shot) adversary.
	busy   sync.Mutex
	prover *attest.Prover

	// lat is the device's slot in the fixture's round-latency probe.
	lat latencyConn
}

// fixtureOpts selects the fleet a workload runs against.
type fixtureOpts struct {
	firmwares []*firmware
	// perFirmware devices are spawned for each firmware, the first
	// armedPerFirmware of them armed (chosen by the seed's shuffle).
	perFirmware      int
	armedPerFirmware int
	streamed         bool
	seed             int64
	hooks            hooks
}

// hooks are what a traced run installs on a workload's fixture; the
// zero value is the untraced run.
type hooks struct {
	// wrapConn wraps every device connection the verifier side opens;
	// nil leaves only the latency probe on it.
	wrapConn func(d *simDevice, c net.Conn, dialStart time.Time) net.Conn
	// onDial observes the time each device dial took.
	onDial func(d time.Duration)
	// fs is the filesystem under the federation's nodes (nil: the real
	// one); wrapCtrl wraps the coordinator's control-plane connections.
	fs       faultfs.FS
	wrapCtrl func(c net.Conn) net.Conn
	// hub, when set, switches internal/obs on: every fleet service and
	// the coordinator report to it.
	hub *obs.Hub
}

// devices is the prover side of a fixture, shared by the single-service
// and the federated verifier fixtures.
type devices struct {
	all    []*simDevice
	byAddr map[string]*simDevice
	lats   *latencyLog
	hooks  hooks
}

func spawnDevices(opts fixtureOpts) (*devices, error) {
	ds := &devices{
		byAddr: make(map[string]*simDevice),
		lats:   newLatencyLog(),
		hooks:  opts.hooks,
	}
	// Keys and the choice of armed devices derive from the seed.
	rng := rand.New(rand.NewSource(opts.seed))
	for _, fw := range opts.firmwares {
		order := rng.Perm(opts.perFirmware)
		for i := 0; i < opts.perFirmware; i++ {
			keys, err := sig.GenerateKeyStore(rng)
			if err != nil {
				ds.close()
				return nil, err
			}
			d := &simDevice{
				id:    fleet.DeviceID(fmt.Sprintf("%s-%03d", fw.name, i)),
				fw:    fw,
				armed: order[i] < opts.armedPerFirmware,
				keys:  keys,
			}
			d.lat.log = ds.lats
			if err := d.listen(opts.streamed); err != nil {
				ds.close()
				return nil, err
			}
			ds.all = append(ds.all, d)
			ds.byAddr[d.addr] = d
		}
	}
	return ds, nil
}

func (d *simDevice) listen(streamed bool) error {
	d.prover = attest.NewProver(d.fw.prog, core.Config{}, d.keys)
	var serve func(io.ReadWriter) error
	if streamed {
		reg := stream.NewRegistry()
		reg.Register(stream.NewProver(d.prover))
		serve = reg.ServeConn
	} else {
		reg := attest.NewRegistry()
		reg.Register(d.prover)
		serve = reg.ServeConn
	}
	if d.armed {
		honest := serve
		serve = func(conn io.ReadWriter) error {
			d.busy.Lock()
			defer d.busy.Unlock()
			d.prover.Adversary = d.fw.attack.Build(d.fw.prog)
			return honest(conn)
		}
	}
	d.srv = attest.NewServerFunc(serve)
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	d.addr = addr.String()
	return nil
}

func (ds *devices) close() {
	for _, d := range ds.all {
		d.srv.Close()
	}
}

func (ds *devices) armed() []*simDevice {
	var out []*simDevice
	for _, d := range ds.all {
		if d.armed {
			out = append(out, d)
		}
	}
	return out
}

// dial is the fleet.Config.Dial every fixture installs: the default TCP
// dial, with the connection handed back inside the device's latency
// probe (or the traced run's wrapper).
func (ds *devices) dial(addr string) (io.ReadWriteCloser, error) {
	d := ds.byAddr[addr]
	start := time.Now()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if ds.hooks.onDial != nil {
		ds.hooks.onDial(time.Since(start))
	}
	if ds.hooks.wrapConn != nil {
		c = ds.hooks.wrapConn(d, c, start)
	}
	d.lat.arm(c, start)
	return &d.lat, nil
}

// latencyLog collects verifier-side device-round latencies (dial start
// to connection close); appending to it allocates nothing per round.
type latencyLog struct {
	mu      sync.Mutex
	samples []latencySample
}

// latencySample is one device-round: when its connection closed and how
// long after the dial started that was.
type latencySample struct {
	done time.Time
	took time.Duration
}

func newLatencyLog() *latencyLog {
	return &latencyLog{samples: make([]latencySample, 0, 1<<16)}
}

func (r *latencyLog) add(done time.Time, took time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, latencySample{done, took})
	r.mu.Unlock()
}

// reset drops what set-up and warm-up recorded.
func (r *latencyLog) reset() {
	r.mu.Lock()
	r.samples = r.samples[:0]
	r.mu.Unlock()
}

// windows sorts the recorded rounds into the timed windows they
// completed in.
func (r *latencyLog) windows(st *loopStats) samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out samples
	for _, s := range r.samples {
		if !s.done.Before(st.start) {
			w := st.windowOf(s.done)
			out[w] = append(out[w], s.took)
		}
	}
	return out
}

// latencyConn is the per-device connection probe. A device has at most
// one verifier connection at a time, so its one probe is reused for
// every round and a dial allocates nothing on the harness side. It
// embeds the connection: reads, writes and deadlines are the
// connection's own.
type latencyConn struct {
	net.Conn
	start time.Time
	log   *latencyLog
}

func (l *latencyConn) arm(c net.Conn, start time.Time) {
	l.Conn = c
	l.start = start
}

func (l *latencyConn) Close() error {
	err := l.Conn.Close()
	done := time.Now()
	l.log.add(done, done.Sub(l.start))
	return err
}

// fleetFixture is a single fleet.Service over a set of devices.
type fleetFixture struct {
	*devices
	svc     *fleet.Service
	progIDs map[*firmware]attest.ProgramID
	// enroll is how long enrolling every device took.
	enroll time.Duration
}

func newFleetFixture(opts fixtureOpts, cfg fleet.Config) (*fleetFixture, error) {
	ds, err := spawnDevices(opts)
	if err != nil {
		return nil, err
	}
	cfg.Dial = ds.dial
	cfg.Obs = opts.hooks.hub
	cfg.StreamedSweeps = opts.streamed
	if opts.streamed {
		cfg.StreamSegmentEvents = streamSegmentEvents
	}
	f := &fleetFixture{devices: ds, svc: fleet.NewService(cfg), progIDs: make(map[*firmware]attest.ProgramID)}
	for _, fw := range opts.firmwares {
		id, err := f.svc.RegisterProgram(fw.prog, core.Config{}, [][]uint32{fw.input})
		if err != nil {
			f.close()
			return nil, err
		}
		f.progIDs[fw] = id
	}
	start := time.Now()
	for _, d := range ds.all {
		if err := f.svc.Enroll(d.id, f.progIDs[d.fw], d.keys.Public(), d.addr); err != nil {
			f.close()
			return nil, err
		}
	}
	f.enroll = time.Since(start)
	return f, nil
}

func (f *fleetFixture) close() {
	f.svc.Close()
	f.devices.close()
}

// streamSegmentEvents is the checkpoint window of streamed sweeps: the
// victim programs retire a few dozen control-flow events, so the default
// window of 64 would seal one segment per run and early abort would have
// nothing to cut short.
const streamSegmentEvents = 8

// fedFixture is a coordinator over three in-process nodes on disk.
type fedFixture struct {
	*devices
	coord  *fed.Coordinator
	nodes  []*fed.Node
	progID attest.ProgramID
	dir    string
	enroll time.Duration
}

const (
	fedNodes    = 3
	fedReplicas = 2
)

func newFedFixture(opts fixtureOpts) (*fedFixture, error) {
	ds, err := spawnDevices(opts)
	if err != nil {
		return nil, err
	}
	f := &fedFixture{devices: ds}
	fail := func(err error) (*fedFixture, error) {
		f.close()
		return nil, err
	}
	if f.dir, err = scratchDir("fed"); err != nil {
		return fail(err)
	}
	h := opts.hooks
	f.coord = fed.NewCoordinator(fed.Config{Replicas: fedReplicas, Obs: h.hub})
	for i := 0; i < fedNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		n, err := fed.NewNode(fed.NodeConfig{
			ID:    fed.NodeID(name),
			Dir:   filepath.Join(f.dir, name),
			FS:    h.fs,
			Fleet: fleet.Config{Dial: ds.dial, Obs: h.hub},
		})
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, n)
		dial := func() (io.ReadWriteCloser, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				_ = n.ServeConn(server)
			}()
			if h.wrapCtrl != nil {
				return h.wrapCtrl(client), nil
			}
			return client, nil
		}
		if _, err := f.coord.Join(n.ID(), dial); err != nil {
			return fail(err)
		}
	}
	fw := opts.firmwares[0]
	if f.progID, err = f.coord.RegisterProgram(fw.prog, core.Config{}, [][]uint32{fw.input}); err != nil {
		return fail(err)
	}
	start := time.Now()
	for _, d := range ds.all {
		if err := f.coord.Enroll(d.id, f.progID, d.keys.Public(), d.addr); err != nil {
			return fail(err)
		}
	}
	f.enroll = time.Since(start)
	return f, nil
}

func (f *fedFixture) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	f.devices.close()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
