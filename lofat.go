// Package lofat is a behavioural reproduction of LO-FAT (Dessouky et
// al., "LO-FAT: Low-Overhead Control Flow ATtestation in Hardware", DAC
// 2017): a hardware control-flow attestation engine for RISC-V embedded
// systems that records a program's run-time control flow — without
// software instrumentation and without stalling the processor — and
// reports it to a remote verifier as a signed (hash, loop-metadata)
// measurement.
//
// The package is a façade over the full stack:
//
//   - an RV32IM assembler and behavioural Pulpino-class core
//     (internal/asm, internal/cpu) standing in for the paper's GCC
//     toolchain and RTL core;
//   - the LO-FAT hardware units: branch filter, loop monitor with
//     path-ID encoding and counter memory, SHA-3 hash engine
//     (internal/filter, internal/monitor, internal/hashengine,
//     integrated in internal/core);
//   - the Figure 2 challenge-response protocol with Ed25519 reports
//     (internal/attest, internal/sig) and the verifier's offline CFG
//     analysis (internal/cfg);
//   - the C-FLAT software baseline and the FPGA area/fmax model used by
//     the evaluation (internal/cflat, internal/area);
//   - the workload suite including the Open Syringe Pump analogue and
//     the three attack classes of Figure 1 (internal/workloads);
//   - the fleet layer (internal/fleet): a verifier-side service scaling
//     the protocol to large fleets of devices on shared firmware — a
//     sharded device registry, a worker-pool verification pipeline with
//     batch submission, a fleet-wide measurement cache that amortizes
//     golden-run simulation across every enrolled device, a periodic
//     sweep scheduler with quarantine, and fleet metrics — hardened
//     against slow, stalling and byzantine devices with per-phase I/O
//     deadlines, bounded retries with jittered backoff, and per-device
//     transport circuit breakers (internal/fleet/faultconn is the
//     fault-injection harness that chaos-tests this layer);
//   - streaming attestation (internal/stream): segmented measurements
//     every N control-flow events, chained so each checkpoint commits
//     to the whole prefix, verified incrementally — divergence rejects
//     at the first bad segment, mid-run, with the offending edge
//     localized and classified against the CFG.
//
// Quick start:
//
//	sys, err := lofat.BuildSource(src, lofat.Options{})
//	res, err := sys.AttestOnce([]uint32{input...})
//	fmt.Println(res) // ACCEPTED (accepted) or REJECTED (+ attack class)
//
// Streamed quick start (see cmd/lofat-stream for a full example):
//
//	res, err := sys.AttestStreamed(input, 64)
//	if res.EarlyAbort { fmt.Println(res.Divergence) } // first bad edge
//
// Fleet quick start (see cmd/lofat-fleet for a full example):
//
//	svc := lofat.NewFleet(lofat.FleetConfig{})
//	progID, err := svc.RegisterProgram(prog, lofat.DeviceConfig{}, inputs)
//	err = svc.Enroll("dev-0001", progID, devicePub, "10.0.0.17:9000")
//	reports, err := svc.Sweep() // or svc.StartScheduler(interval)
package lofat

import (
	"crypto/rand"
	"fmt"
	"io"

	"lofat/internal/area"
	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/cfg"
	"lofat/internal/cflat"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/fleet"
	"lofat/internal/fleet/faultconn"
	"lofat/internal/monitor"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/workloads"
)

// Re-exported core types: one import surface for downstream users.
type (
	// Program is an assembled RV32IM binary image.
	Program = asm.Program
	// Measurement is the LO-FAT device output (A, L, statistics).
	Measurement = core.Measurement
	// LoopRecord is one entry of the loop metadata L.
	LoopRecord = monitor.LoopRecord
	// PathCode is a unique loop path encoding (Figure 4).
	PathCode = monitor.PathCode
	// DeviceConfig parameterises the LO-FAT hardware.
	DeviceConfig = core.Config
	// Challenge is the verifier's attestation request.
	Challenge = attest.Challenge
	// Report is the prover's signed attestation response.
	Report = attest.Report
	// Result is the verifier's decision, with attack classification.
	Result = attest.Result
	// Classification labels a verification outcome.
	Classification = attest.Classification
	// Adversary is a run-time attack hook (data memory only).
	Adversary = attest.Adversary
	// Machine is a loaded program on the simulated core.
	Machine = cpu.Machine
	// Workload is a ready-made evaluation program.
	Workload = workloads.Workload
	// Attack is a ready-made Figure 1 attack scenario.
	Attack = workloads.Attack
	// AreaConfig / AreaReport drive the §6.2 synthesis model.
	AreaConfig = area.Config
	// AreaReport is a synthesis estimate.
	AreaReport = area.Report
	// CFLATResult is a C-FLAT baseline run.
	CFLATResult = cflat.Result
	// Graph is the verifier's control-flow graph.
	Graph = cfg.Graph

	// Fleet is the verifier-side fleet attestation service.
	Fleet = fleet.Service
	// FleetConfig parameterises a Fleet (shards, workers, cache, ...).
	FleetConfig = fleet.Config
	// FleetMetrics is a snapshot of fleet counters and gauges.
	FleetMetrics = fleet.MetricsSnapshot
	// DeviceID names one enrolled fleet device.
	DeviceID = fleet.DeviceID
	// DeviceState is a registry snapshot of one fleet device.
	DeviceState = fleet.DeviceState
	// SweepReport summarises one fleet attestation sweep.
	SweepReport = fleet.SweepReport
	// FleetRound is one unit of fleet pipeline work.
	FleetRound = fleet.Round
	// FleetOutcome is the pipeline's record of one completed round.
	FleetOutcome = fleet.Outcome
	// MeasurementCache is the fleet-wide golden-measurement store.
	MeasurementCache = fleet.MeasurementCache
	// BreakerState is a fleet device's transport circuit breaker
	// position (healthy / degraded / tripped) — a transport verdict,
	// distinct from measurement-based quarantine.
	BreakerState = fleet.BreakerState
	// SweepError aggregates per-program failures of one fleet sweep.
	SweepError = fleet.SweepError
	// TransportTimeouts are per-phase I/O deadlines for one attestation
	// exchange (challenge write, report/segment reads).
	TransportTimeouts = attest.Timeouts
	// TransportError marks an I/O failure on the frame transport, with
	// Timeout() separating stalled peers from dropped connections.
	TransportError = attest.TransportError
	// FaultPlan selects transport faults (latency, mid-frame stalls,
	// drops, corruption, torn writes) for chaos testing; FaultConn is a
	// connection degraded by one.
	FaultPlan = faultconn.Plan
	FaultConn = faultconn.Conn

	// Segment is one chained checkpoint of a streamed attestation.
	Segment = core.Segment
	// StreamConfig parameterises streamed verification (window size N).
	StreamConfig = stream.Config
	// StreamResult is the outcome of a streamed attestation session.
	StreamResult = stream.Result
	// StreamDivergence localizes the first divergent control-flow edge.
	StreamDivergence = stream.Divergence
	// StreamProver is the device-side half of segmented attestation.
	StreamProver = stream.Prover
	// StreamVerifier opens incrementally-verified sessions.
	StreamVerifier = stream.Verifier
	// StreamSession is one streamed attestation in progress.
	StreamSession = stream.Session
	// SegmentReport is one signed chained sub-measurement on the wire.
	SegmentReport = stream.SegmentReport
)

// Verification outcome classes (Figure 1 attack taxonomy).
const (
	ClassAccepted       = attest.ClassAccepted
	ClassProtocol       = attest.ClassProtocol
	ClassSignature      = attest.ClassSignature
	ClassLoopCounter    = attest.ClassLoopCounter
	ClassControlFlow    = attest.ClassControlFlow
	ClassNonControlData = attest.ClassNonControlData
)

// Transport circuit breaker states (fleet resilience layer).
const (
	BreakerHealthy  = fleet.BreakerHealthy
	BreakerDegraded = fleet.BreakerDegraded
	BreakerTripped  = fleet.BreakerTripped
)

// NewFaultConn wraps a transport in a fault-injection plan — the chaos
// harness used to test the fleet's deadline / retry / breaker layer
// against stalling, dropping and corrupting peers.
func NewFaultConn(inner io.ReadWriteCloser, plan FaultPlan) *FaultConn {
	return faultconn.New(inner, plan)
}

// Assemble builds a program image from RV32IM assembly source.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// Options configures a System.
type Options struct {
	// Device is the LO-FAT hardware configuration (zero = paper
	// defaults: ℓ=16, n=4, depth 3, SHA-3 with 4-deep FIFO).
	Device DeviceConfig
	// Rand supplies entropy for device keys and nonces (default
	// crypto/rand).
	Rand io.Reader
	// MaxInstructions bounds attested executions (default 50M).
	MaxInstructions uint64
}

// System bundles a provisioned prover device and its verifier — the two
// parties of the Figure 2 protocol sharing a program S.
type System struct {
	Program  *Program
	Prover   *attest.Prover
	Verifier *attest.Verifier
}

// Build provisions a prover/verifier pair for an assembled program:
// device key generation, verifier enrolment (public key + binary), and
// the verifier's offline CFG analysis.
func Build(prog *Program, opts Options) (*System, error) {
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	keys, err := sig.GenerateKeyStore(opts.Rand)
	if err != nil {
		return nil, err
	}
	p := attest.NewProver(prog, opts.Device, keys)
	v, err := attest.NewVerifier(prog, opts.Device, keys.Public(), opts.Rand)
	if err != nil {
		return nil, err
	}
	if opts.MaxInstructions > 0 {
		p.MaxInstructions = opts.MaxInstructions
		v.MaxInstructions = opts.MaxInstructions
	}
	return &System{Program: prog, Prover: p, Verifier: v}, nil
}

// BuildSource is Build for assembly source.
func BuildSource(source string, opts Options) (*System, error) {
	prog, err := Assemble(source)
	if err != nil {
		return nil, err
	}
	return Build(prog, opts)
}

// BuildWorkload is Build for a named workload from the evaluation
// suite. An interrupt-driven workload (pump-isr) gets its own interrupt
// schedule unless opts.Device.IRQ already sets one.
func BuildWorkload(name string, opts Options) (*System, Workload, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, Workload{}, fmt.Errorf("lofat: unknown workload %q", name)
	}
	prog, err := w.Assemble()
	if err != nil {
		return nil, Workload{}, err
	}
	if opts.Device.IRQ == (cpu.IRQSchedule{}) {
		if opts.Device.IRQ, err = w.Schedule(prog); err != nil {
			return nil, Workload{}, err
		}
	}
	sys, err := Build(prog, opts)
	return sys, w, err
}

// SetAdversary installs a run-time attack on the prover device (for
// experiments; nil removes it).
func (s *System) SetAdversary(a Adversary) { s.Prover.Adversary = a }

// NewStreamProver wraps a prover for segmented streaming attestation.
func NewStreamProver(p *attest.Prover) *StreamProver { return stream.NewProver(p) }

// NewStreamVerifier wraps a verifier for incremental streamed
// verification with the given checkpoint window.
func NewStreamVerifier(v *attest.Verifier, cfg StreamConfig) *StreamVerifier {
	return stream.NewVerifier(v, cfg)
}

// AttestStreamed runs one full streamed attestation round in memory:
// the device's chained segments are verified as they seal, every
// segmentEvents control-flow events (0 selects the default window). A
// divergence rejects at the first bad segment — aborting the device
// run mid-execution — with the offending edge localized in
// Result.Divergence.
func (s *System) AttestStreamed(input []uint32, segmentEvents int) (StreamResult, error) {
	sp := stream.NewProver(s.Prover)
	sv := stream.NewVerifier(s.Verifier, StreamConfig{SegmentEvents: segmentEvents})
	return stream.AttestOnce(sp, sv, input, nil)
}

// AttestOnce runs one full challenge-response round in memory: fresh
// challenge for input, prover execution under LO-FAT, verification.
func (s *System) AttestOnce(input []uint32) (Result, error) {
	ch, err := s.Verifier.NewChallenge(input)
	if err != nil {
		return Result{}, err
	}
	rep, err := s.Prover.Attest(ch)
	if err != nil {
		return Result{}, err
	}
	return s.Verifier.Verify(ch, rep), nil
}

// Measure runs a program under the LO-FAT device with no protocol
// around it and returns the raw measurement — the device-level API.
func Measure(prog *Program, device DeviceConfig, input []uint32) (Measurement, error) {
	m, _, err := attest.Measure(prog, device, input, 50_000_000)
	return m, err
}

// MeasureSource is Measure for assembly source.
func MeasureSource(source string, device DeviceConfig, input []uint32) (Measurement, error) {
	prog, err := Assemble(source)
	if err != nil {
		return Measurement{}, err
	}
	return Measure(prog, device, input)
}

// Workloads returns the full evaluation workload suite (syringe pump
// first, then the kernels and extended programs).
func Workloads() []Workload { return workloads.All2() }

// Attacks returns the Figure 1 attack scenarios.
func Attacks() []Attack { return workloads.Attacks() }

// EstimateArea runs the §6.2 synthesis model.
func EstimateArea(cfg AreaConfig) AreaReport { return area.Estimate(cfg) }

// RunCFLAT executes a program under the C-FLAT software baseline's cost
// model, for overhead comparisons against LO-FAT's zero stalls.
func RunCFLAT(prog *Program, input []uint32) (CFLATResult, error) {
	return cflat.NewRunner().Run(prog, input)
}

// MetadataSize reports the encoded size in bytes of loop metadata L.
func MetadataSize(loops []LoopRecord) int { return attest.MetadataSize(loops) }

// NewFleet builds a fleet attestation service and starts its worker
// pool. Register firmware with RegisterProgram, enrol devices with
// Enroll, then drive rounds with Sweep or StartScheduler.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.NewService(cfg) }
