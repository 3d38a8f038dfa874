package attest

import (
	"fmt"

	"lofat/internal/asm"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/sig"
	"lofat/internal/trace"
)

// Adversary is an optional attack hook run before every instruction. It
// models the paper's software adversary with "full control over the data
// memory": implementations corrupt rw memory through Machine.Mem.Poke
// (code and LO-FAT state are out of its reach by construction). A
// non-nil error aborts the run.
type Adversary func(m *cpu.Machine) error

// Prover is the embedded device: program, LO-FAT hardware configuration,
// and the hardware-held signing key.
type Prover struct {
	prog   *asm.Program
	id     ProgramID
	devCfg core.Config
	keys   *sig.KeyStore

	// MaxInstructions bounds a single attested execution.
	MaxInstructions uint64
	// Adversary, when set, simulates run-time attacks during execution.
	Adversary Adversary
}

// NewProver builds a prover for an assembled program.
func NewProver(prog *asm.Program, devCfg core.Config, keys *sig.KeyStore) *Prover {
	return &Prover{
		prog:            prog,
		id:              ComputeProgramID(prog.Text),
		devCfg:          devCfg,
		keys:            keys,
		MaxInstructions: 50_000_000,
	}
}

// ProgramID returns the identity of the installed binary.
func (p *Prover) ProgramID() ProgramID { return p.id }

// Program exposes the installed program image (for protocol extensions
// that run it under extra instrumentation, e.g. internal/stream).
func (p *Prover) Program() *asm.Program { return p.prog }

// DeviceConfig exposes the LO-FAT hardware configuration.
func (p *Prover) DeviceConfig() core.Config { return p.devCfg }

// Sign signs a payload with the device's hardware-held key. Protocol
// extensions use it to authenticate their own messages (per-segment
// signatures in internal/stream) with the same key that signs reports.
func (p *Prover) Sign(msg []byte) []byte { return p.keys.Sign(msg) }

// Attest executes the challenge: runs S(i) under LO-FAT observation and
// returns the signed report. The adversary hook, if any, runs alongside,
// exactly like the untrusted inputs I of the system model.
func (p *Prover) Attest(ch Challenge) (*Report, error) {
	if ch.Program != p.id {
		return nil, fmt.Errorf("attest: challenge for program %v, running %v", ch.Program, p.id)
	}
	meas, exitCode, err := RunMeasured(p.prog, p.devCfg, ch.Input, p.MaxInstructions, p.Adversary, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Program:  p.id,
		Nonce:    ch.Nonce,
		Hash:     meas.Hash,
		Loops:    meas.Loops,
		ExitCode: exitCode,
	}
	rep.Sig = p.keys.Sign(SignedPayload(rep))
	return rep, nil
}

// Measure runs the program without an adversary and returns the raw
// measurement; used by provers for self-test and by the verifier for
// golden-run expectations.
func Measure(prog *asm.Program, devCfg core.Config, input []uint32, maxInstructions uint64) (core.Measurement, uint32, error) {
	return RunMeasured(prog, devCfg, input, maxInstructions, nil, nil)
}

// RunMeasured is the one measured-run loop; every attested execution
// and every golden run, plain or streamed, goes through it. It runs
// prog on a pooled machine under a pooled LO-FAT device on the batched
// trace port and returns the device's measurement and the exit code.
// adv (optional) runs before every instruction. tap (optional) receives
// the acquired device and returns the sink to wire in its place (the
// segment emitter: it forwards to the device and itself needs only the
// control-flow events) and an optional poll, consulted after every
// instruction; a poll error stops the run there.
func RunMeasured(prog *asm.Program, devCfg core.Config, input []uint32, budget uint64, adv Adversary,
	tap func(*core.Device) (trace.BatchSink, func() error)) (core.Measurement, uint32, error) {
	mach, err := cpu.AcquireMachine(prog, cpu.LoadOptions{})
	if err != nil {
		return core.Measurement{}, 0, err
	}
	defer cpu.ReleaseMachine(mach)
	dev := core.AcquireDevice(devCfg)
	defer core.ReleaseDevice(dev)
	var sink trace.BatchSink = dev
	var poll func() error
	if tap != nil {
		sink, poll = tap(dev)
	}
	// Batched delivery, masked to control-flow events whenever the
	// device accepts that (no Region configured). Either way the
	// measurement is bit-identical to the unmasked per-step reference.
	mach.CPU.TraceBatch = sink
	mach.CPU.TraceCFOnly = dev.CFOnlyCompatible()
	mach.CPU.Input = input
	mach.CPU.IRQ = devCfg.IRQ
	if err := drive(mach, budget, adv, poll); err != nil {
		return core.Measurement{}, 0, fmt.Errorf("attest: %w", err)
	}
	return dev.Finalize(), mach.CPU.ExitCode, nil
}

// drive runs mach to halt within budget instructions: one cpu.Run when
// no per-step hook is set, a Step loop otherwise. A budget or exec fault
// reads the same either way, so RunMeasured's error text does not depend
// on which hooks are set.
func drive(mach *cpu.Machine, budget uint64, adv Adversary, poll func() error) error {
	if adv == nil && poll == nil {
		return mach.CPU.Run(budget)
	}
	for !mach.CPU.Halted {
		if mach.CPU.Retired >= budget {
			return fmt.Errorf("cpu: instruction budget %d exhausted at pc=%#08x", budget, mach.CPU.PC)
		}
		if adv != nil {
			if err := adv(mach); err != nil {
				return fmt.Errorf("adversary: %w", err)
			}
		}
		if err := mach.CPU.Step(); err != nil {
			return err
		}
		if poll != nil {
			// Flush first: an abort stops the run within one instruction.
			mach.CPU.FlushTrace()
			if err := poll(); err != nil {
				return fmt.Errorf("aborted mid-run: %w", err)
			}
		}
	}
	return nil
}
