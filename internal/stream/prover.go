package stream

import (
	"fmt"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/trace"
)

// Prover is the device-side half of segmented attestation: it wraps an
// attest.Prover (program image, hardware configuration, signing key,
// adversary hook) and answers stream open requests by executing S(i)
// under a segment emitter, signing each checkpoint as it is sealed.
type Prover struct {
	ap *attest.Prover
}

// NewProver wraps an attest prover for streaming.
func NewProver(ap *attest.Prover) *Prover { return &Prover{ap: ap} }

// Inner exposes the wrapped attest prover (the same endpoint usually
// serves both protocols).
func (p *Prover) Inner() *attest.Prover { return p.ap }

// ProgramID returns the identity of the installed binary.
func (p *Prover) ProgramID() attest.ProgramID { return p.ap.ProgramID() }

// Stream executes an open request under segmented observation. emit is
// called with each signed segment report in stream order; its error
// aborts the execution (the transport layer maps a dead connection —
// a verifier that rejected mid-stream and hung up — onto exactly this
// path, so an attacked device stops running the moment the verifier
// gives up on it). On success the signed close report is returned; the
// caller transmits it as the final message of the session.
func (p *Prover) Stream(open OpenRequest, emit func(*SegmentReport) error) (*CloseReport, error) {
	if open.Program != p.ap.ProgramID() {
		return nil, fmt.Errorf("stream: open for program %v, running %v", open.Program, p.ap.ProgramID())
	}
	n := int(open.SegmentEvents)
	if n <= 0 || n > MaxSegmentEvents {
		return nil, fmt.Errorf("stream: segment window %d out of range [1, %d]", open.SegmentEvents, MaxSegmentEvents)
	}

	devCfg := p.ap.DeviceConfig()
	var em *Emitter
	meas, exitCode, err := attest.RunMeasured(p.ap.Program(), devCfg, open.Input, p.ap.MaxInstructions, p.ap.Adversary,
		func(dev *core.Device) (trace.BatchSink, func() error) {
			em = NewEmitter(dev, devCfg, n, func(seg core.Segment) error {
				sr := &SegmentReport{
					Program: open.Program,
					Nonce:   open.Nonce,
					Index:   seg.Index,
					Events:  seg.Events,
					Chain:   seg.Chain,
					Edges:   seg.Edges,
				}
				sr.Sig = p.ap.Sign(SegmentPayload(sr))
				return emit(sr)
			})
			// Polled after every instruction: a failed emit stops the
			// device within one instruction.
			return em, em.Err
		})
	if err != nil {
		return nil, err
	}
	if _, err := em.Finalize(meas); err != nil {
		return nil, fmt.Errorf("stream: aborted at final segment: %w", err)
	}

	rep := attest.Report{
		Program:  p.ap.ProgramID(),
		Nonce:    open.Nonce,
		Hash:     meas.Hash,
		Loops:    meas.Loops,
		ExitCode: exitCode,
	}
	rep.Sig = p.ap.Sign(attest.SignedPayload(&rep))
	return &CloseReport{
		Report:   rep,
		Segments: em.SegmentCount(),
		Chain:    em.ChainValue(),
	}, nil
}
