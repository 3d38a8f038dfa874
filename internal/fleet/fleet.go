// Package fleet is the verifier-side service that scales the Figure 2
// challenge-response protocol from one prover to a large fleet of LO-FAT
// devices running shared firmware images. It combines:
//
//   - a sharded device registry (enrolment: device ID, public key,
//     program ID, last-attested state, quarantine status);
//   - an asynchronous verification pipeline — a bounded job queue
//     feeding a worker pool that drives attestation rounds concurrently,
//     with batch submission;
//   - a fleet-wide measurement cache layered under every device
//     verifier via attest.ExpectationCache, so the golden run for a
//     given (program, input) is simulated once and reused fleet-wide —
//     a cache hit reduces verification to protocol, signature and hash
//     comparison, with no simulation;
//   - a scheduler that sweeps the fleet issuing periodic challenges over
//     the existing frame transport, records per-device results, and
//     quarantines devices whose attestations are rejected;
//   - fleet metrics: throughput, cache hit rate, accept/reject counts
//     per attack classification, and per-class transport-failure
//     counters (dial / timeout / drop / protocol);
//   - a transport resilience layer: per-phase I/O deadlines on every
//     exchange, bounded retries with jittered exponential backoff, and
//     a per-device circuit breaker (healthy → degraded → tripped, with
//     half-open probes on later sweeps) so devices that stall
//     mid-frame or drop connections — a cheaper attack than forging a
//     measurement — cannot wedge workers or consume the fleet's
//     timeout budget sweep after sweep. The breaker is deliberately
//     distinct from quarantine: quarantine is a measurement verdict,
//     the breaker a transport verdict. internal/fleet/faultconn is the
//     fault-injection harness that chaos-tests this layer.
//
// The design follows the C-FLAT lineage's precomputed-measurement
// deployment mode (attest.Verifier.Precompute): for fleets of identical
// embedded devices the verifier's expensive step — golden-running S(i)
// — amortizes across every enrolled device.
package fleet

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/obs"
	"lofat/internal/stream"
)

// DialFunc opens a transport to a device given its enrolled address.
// The connection speaks the attest frame protocol (a prover-side
// Registry.ServeConn or attest.Server on the far end).
type DialFunc func(addr string) (io.ReadWriteCloser, error)

// Config parameterises a fleet Service. Zero values select defaults.
type Config struct {
	// Shards is the device registry shard count (default 16).
	Shards int
	// Workers is the verification worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the verification job queue; submission blocks
	// when the queue is full (default 4×Workers).
	QueueDepth int
	// QuarantineAfter is the number of consecutive rejected attestations
	// that quarantines a device (default 1). Only authenticated
	// rejections — a report that carried a valid device signature and
	// measured wrong — advance the streak. Transport errors and
	// unauthenticated rejects (signature/protocol failures, which an
	// on-path attacker or a corrupting link can fabricate) feed the
	// transport circuit breaker instead: an unreachable or garbled
	// device is not evidence of compromise.
	QuarantineAfter int
	// DisableCache turns the shared measurement cache off; every device
	// verifier then golden-runs independently (the pre-fleet behaviour,
	// kept for measurement and fallback).
	DisableCache bool
	// StreamedSweeps makes Sweep (and the scheduler) drive rounds over
	// the segmented streaming protocol (internal/stream): devices are
	// verified incrementally while they execute, and an attacked device
	// is rejected — and quarantined — at its first divergent segment
	// instead of after the run completes. Devices must serve the stream
	// protocol (stream.NewServer / stream.Registry.ServeConn).
	StreamedSweeps bool
	// StreamSegmentEvents is the checkpoint window N for streamed
	// rounds (default stream.DefaultSegmentEvents).
	StreamSegmentEvents int
	// Dial opens device transports (default TCP with a DialTimeout
	// timeout).
	Dial DialFunc
	// DialTimeout bounds the default TCP dial (default 5s). Ignored
	// when a custom Dial is supplied.
	DialTimeout time.Duration
	// ReadTimeout and WriteTimeout are the per-phase I/O deadlines
	// armed on every exchange with a device: each protocol write and
	// each wait for the device's next frame (report, or stream segment)
	// gets its own deadline, so a device that stalls mid-frame — a
	// cheaper attack than forging a measurement — times the round out
	// instead of wedging a fleet worker forever. Default 30s each; a
	// negative value disables that deadline.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// RetryAttempts is the total number of transport attempts per round
	// (default 2, i.e. one retry). Only transport failures — dial
	// errors, timeouts, dropped connections — are retried; a device
	// speaking garbage or a rejected measurement is never retried.
	RetryAttempts int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per further attempt, capped at RetryBackoffMax, with ±50% jitter
	// so a fleet of failing devices does not retry in lockstep.
	// Defaults: 50ms base, 1s cap.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// BreakerThreshold trips a device's transport circuit breaker after
	// this many consecutive failed rounds (all attempts exhausted).
	// Tripped devices are skipped — their timeout budget is not paid —
	// except for one half-open probe after the device has sat out
	// BreakerProbeAfter fleet sweeps; a completed exchange closes the
	// breaker. Default 3; a negative value disables the breaker. The
	// breaker is distinct from quarantine: quarantine is a measurement
	// verdict (the device attested wrong), the breaker is a transport
	// verdict (the device cannot be talked to).
	BreakerThreshold int
	// BreakerProbeAfter is the number of sweeps a tripped device sits
	// out before the next half-open probe (default 1).
	BreakerProbeAfter int
	// MaxInstructions bounds golden runs (default: verifier default).
	MaxInstructions uint64
	// Obs attaches the observability hub: a non-nil Reg exposes the
	// fleet counters, gauges and latency histograms; a non-nil Tracer
	// records sweep → round → segment spans; a non-nil Flight keeps the
	// recent-event ring for post-mortem dumps. Nil (the default) leaves
	// every hot path at its zero-overhead disabled state.
	Obs *obs.Hub
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.StreamSegmentEvents <= 0 {
		c.StreamSegmentEvents = stream.DefaultSegmentEvents
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerProbeAfter <= 0 {
		c.BreakerProbeAfter = 1
	}
	if c.Dial == nil {
		dialTimeout := c.DialTimeout
		c.Dial = func(addr string) (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
}

// backoff is the pre-attempt delay before retry number retry (1-based):
// exponential, uniformly jittered to ±50% of the nominal value, and
// never above RetryBackoffMax.
func (c *Config) backoff(retry int) time.Duration {
	d := c.RetryBackoff << (retry - 1)
	if d <= 0 || d > c.RetryBackoffMax {
		d = c.RetryBackoffMax
	}
	j := d/2 + mrand.N(d+1) // uniform in [d/2, 3d/2]
	return min(j, c.RetryBackoffMax)
}

// program is a registered firmware image: the shared offline analysis
// (template verifier) plus the input schedule its fleet is swept with.
type program struct {
	prog     *asm.Program
	template *attest.Verifier
	inputs   [][]uint32
	next     int // round-robin index into inputs for the next sweep
}

// Service is the fleet attestation service. Construct with NewService,
// register firmware with RegisterProgram, enrol devices with Enroll,
// then drive rounds with Sweep / SubmitBatch or StartScheduler.
type Service struct {
	cfg     Config
	reg     *Registry
	cache   *MeasurementCache // nil when disabled
	metrics *Metrics
	tracer  *obs.Tracer // nil when tracing is off
	flight  *obs.Flight // nil when the flight recorder is off
	jobs    chan *job
	workers sync.WaitGroup

	// sweepGen numbers program sweeps; tripped-breaker devices use it
	// to pace their half-open probes (one per BreakerProbeAfter sweeps).
	sweepGen atomic.Uint64

	// mu guards programs, reports and closed. Submission paths hold it
	// read-locked around queue sends so Close cannot race a send on a
	// closed channel.
	mu       sync.RWMutex
	programs map[attest.ProgramID]*program
	reports  []SweepReport
	closed   bool
}

// NewService builds the service and starts its worker pool.
func NewService(cfg Config) *Service {
	cfg.fill()
	s := &Service{
		cfg:      cfg,
		reg:      NewRegistry(cfg.Shards),
		metrics:  NewMetrics(),
		jobs:     make(chan *job, cfg.QueueDepth),
		programs: make(map[attest.ProgramID]*program),
	}
	if !cfg.DisableCache {
		s.cache = NewMeasurementCache()
	}
	if hub := cfg.Obs; hub != nil {
		s.tracer = hub.Tracer
		s.flight = hub.Flight
		if reg := hub.Reg; reg != nil {
			s.metrics.register(reg)
			reg.RegisterGaugeFunc("lofat_fleet_devices", "", "Enrolled devices.",
				func() int64 { return int64(s.reg.Len()) })
			reg.RegisterGaugeFunc("lofat_fleet_quarantined", "", "Quarantined devices (measurement verdict).",
				//lofat:ignore locked the pred runs inside count, which holds each shard's read lock around it
				func() int64 { return int64(s.reg.count(func(d *device) bool { return d.quarantined })) })
			reg.RegisterGaugeFunc("lofat_fleet_tripped", "", "Devices with a tripped transport breaker.",
				func() int64 { return int64(s.reg.count((*device).tripped)) })
			reg.RegisterGaugeFunc("lofat_fleet_queue_depth", "", "Verification jobs waiting in the pipeline queue.",
				func() int64 { return int64(len(s.jobs)) })
		}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the worker pool after in-flight jobs drain. Stop any
// scheduler first; submissions after Close return ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.workers.Wait()
}

// ErrClosed is returned for submissions to a closed service.
var ErrClosed = fmt.Errorf("fleet: service is closed")

// RegisterProgram performs the per-firmware offline step once for the
// whole fleet: disassembly, CFG construction, and cache attachment. The
// inputs are the challenge inputs the scheduler rotates through on
// sweeps (at least one is required). Devices enrolled for the returned
// program ID share this analysis via derived verifiers.
func (s *Service) RegisterProgram(prog *asm.Program, devCfg core.Config, inputs [][]uint32) (attest.ProgramID, error) {
	if len(inputs) == 0 {
		return attest.ProgramID{}, fmt.Errorf("fleet: program needs at least one sweep input")
	}
	template, err := attest.NewVerifier(prog, devCfg, nil, rand.Reader)
	if err != nil {
		return attest.ProgramID{}, err
	}
	if s.cfg.MaxInstructions > 0 {
		template.MaxInstructions = s.cfg.MaxInstructions
	}
	if s.cache != nil {
		template.SetExpectationCache(s.cache)
	}
	copied := make([][]uint32, len(inputs))
	for i, in := range inputs {
		copied[i] = append([]uint32(nil), in...)
	}
	id := template.ProgramID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return attest.ProgramID{}, ErrClosed
	}
	if _, dup := s.programs[id]; dup {
		return attest.ProgramID{}, fmt.Errorf("fleet: program %v already registered", id)
	}
	s.programs[id] = &program{prog: prog, template: template, inputs: copied}
	return id, nil
}

// Enroll adds a device to the fleet: its identity, the firmware it
// runs, the public half of its hardware key, and the address its
// attestation endpoint listens on. The device gets its own verifier
// derived from the program template, sharing the offline analysis and
// the measurement cache but holding independent nonce state.
func (s *Service) Enroll(id DeviceID, prog attest.ProgramID, pub ed25519.PublicKey, addr string) error {
	return s.EnrollState(DeviceState{ID: id, Addr: addr, Program: prog, Pub: pub})
}

// EnrollState enrols a device restoring a previously snapshotted record
// — the warm-restart and federation hand-off path. Unlike Enroll, the
// quarantine flag, rejection streak, breaker position and lifetime
// counters all carry over, so a device quarantined (or mid-breaker)
// before a node died stays that way after the restore. The program must
// already be registered; the verifier is re-derived from its template
// (verifier nonce state is per-round and deliberately not restored).
func (s *Service) EnrollState(st DeviceState) error {
	s.mu.RLock()
	p, ok := s.programs[st.Program]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("fleet: program %v not registered", st.Program)
	}
	return s.reg.add(&device{
		id:       st.ID,
		addr:     st.Addr,
		program:  st.Program,
		pub:      append(ed25519.PublicKey(nil), st.Pub...),
		verifier: p.template.ForKey(st.Pub),

		quarantined:        st.Quarantined,
		consecutiveRejects: st.ConsecutiveRejects,
		rounds:             st.Rounds,
		accepted:           st.Accepted,
		rejected:           st.Rejected,
		transportErrors:    st.TransportErrors,
		lastClass:          st.LastClass,
		lastFindings:       append([]string(nil), st.LastFindings...),
		lastError:          st.LastError,
		lastAttested:       st.LastAttested,

		breaker: st.breaker(),
	})
}

// SyncState overwrites an enrolled device's replicated policy fields —
// quarantine, rejection streak, lifetime counters, breaker position —
// with a snapshot from another replica of the same device. This is the
// anti-entropy half of federated replication: a secondary that did not
// run the round still converges on the primary's verdict history.
// Identity fields and local diagnostics are left untouched. It reports
// false when the device is not enrolled (or enrolled for a different
// program); callers then restore via EnrollState instead.
func (s *Service) SyncState(st DeviceState) bool {
	return s.reg.sync(st)
}

// Forget removes a device from the fleet entirely, returning its final
// snapshot — the extraction half of a federation hand-off (EnrollState
// on the receiving node is the other half). The device's flight-recorder
// events are drained along with the record: if the ID is ever enrolled
// again, here or elsewhere, it must not inherit this occupant's breaker
// or quarantine history.
func (s *Service) Forget(id DeviceID) (DeviceState, bool) {
	st, ok := s.reg.remove(id)
	if ok {
		s.flight.DropDevice(string(id))
	}
	return st, ok
}

// SweepGeneration reports the current sweep generation counter.
func (s *Service) SweepGeneration() uint64 { return s.sweepGen.Load() }

// SyncSweepGeneration advances the sweep counter to at least gen (it
// never rewinds). A node restoring persisted device state must also
// restore the generation the breaker fields were recorded against,
// or every restored tripped breaker would fire its half-open probe on
// the first post-restart sweep regardless of how long it had sat out.
func (s *Service) SyncSweepGeneration(gen uint64) {
	for {
		cur := s.sweepGen.Load()
		if cur >= gen || s.sweepGen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Registry surface, re-exposed on the service.

// Device returns the registry snapshot for one device.
func (s *Service) Device(id DeviceID) (DeviceState, bool) { return s.reg.State(id) }

// Devices returns snapshots of every enrolled device, sorted by ID.
func (s *Service) Devices() []DeviceState { return s.reg.States() }

// FleetSize reports the number of enrolled devices.
func (s *Service) FleetSize() int { return s.reg.Len() }

// Quarantined lists quarantined device IDs, sorted.
func (s *Service) Quarantined() []DeviceID { return s.reg.Quarantined() }

// Tripped lists devices whose transport circuit breaker is tripped,
// sorted. Distinct from Quarantined: these devices measured nothing
// wrong — they could not be talked to.
func (s *Service) Tripped() []DeviceID { return s.reg.Tripped() }

// Release restores a device to full service (operator override after
// re-provisioning): quarantine is lifted and an open transport breaker
// is closed; it reports whether the device exists. This is also the
// recovery path for breakers tripped by direct Submit rounds, which —
// unlike sweeps — never fire half-open probes. The device's
// flight-recorder events are drained too: a released device is treated
// as re-provisioned, and post-mortems on its future conduct must not
// pick up breaker or quarantine history from before the operator
// intervened.
func (s *Service) Release(id DeviceID) bool {
	ok := s.reg.Release(id)
	if ok {
		s.flight.DropDevice(string(id))
	}
	return ok
}

// Cache exposes the shared measurement cache (nil when disabled).
func (s *Service) Cache() *MeasurementCache { return s.cache }

// Flight exposes the service's flight recorder (nil when disabled).
func (s *Service) Flight() *obs.Flight { return s.flight }
