// Package stream implements segmented, incrementally-verified
// attestation on top of the LO-FAT stack: instead of one measurement
// over the whole run (Figure 2's single signed report), the prover
// emits chained sub-measurements — segments — every N retired
// control-flow events, and the verifier checks each segment as it
// arrives against golden-run checkpoints.
//
// This closes two gaps in end-of-run attestation:
//
//   - long-running (or non-terminating) programs can be checked while
//     they execute, not only after they halt;
//   - on divergence the verifier rejects at the FIRST bad segment —
//     aborting the session mid-run — and a forensic pass localizes the
//     offending control-flow edge (src→dest PC) and classifies the
//     attack against the statically-enumerated CFG, instead of
//     reporting only "the hash differs".
//
// The moving parts:
//
//   - Emitter: a trace.BatchSink wrapper over core.Device, wired to the
//     core's batched trace port by attest.RunMeasured like every other
//     measured run. It forwards every event to the device (the normal
//     A/L measurement is unchanged) and, in parallel, records the (Src,
//     Dest) edge of each measured control-flow event. Every N edges it
//     seals a core.Segment whose chain value is SHA3-512(previous chain
//     || edge window) — segment k commits to segments 0..k-1, so an
//     already-reported prefix cannot be rewritten.
//   - Prover: wraps attest.Prover; runs S(i) under the emitter, signing
//     each segment and the final close report with the device key. The
//     run flushes the trace port and polls the emitter after every
//     instruction, so a segment that cannot be delivered (the verifier
//     rejected and hung up) stops the device within one instruction.
//   - Verifier/Session: wraps attest.Verifier; golden-runs S(i) once
//     under the same emitter (cached through attest.ExpectationCache,
//     so fleets amortize streamed golden runs exactly like plain ones)
//     and consumes segments incrementally. The first divergent segment
//     terminates the session; forensics diff the divergent window
//     against the golden window to name the first offending edge.
//   - Transport: the new messages (OpenRequest, SegmentReport,
//     CloseReport) ride the attest frame transport on type bytes 16+,
//     so one connection — and one attest.Server — can serve both the
//     classic and the streamed protocol.
//
// Nonce discipline is inherited from attest.Verifier: Open draws a
// fresh challenge nonce, every segment echoes it, and the session
// retires it on any terminal outcome.
package stream

import (
	"errors"
	"fmt"

	"lofat/internal/attest"
	"lofat/internal/hashengine"
	"lofat/internal/obs"
)

// DefaultSegmentEvents is the default checkpoint window N: the number
// of retired control-flow events per segment.
const DefaultSegmentEvents = 64

// MaxSegmentEvents bounds the window a verifier may request (and a
// prover will honour): large enough for coarse checkpointing, small
// enough that a hostile open cannot force unbounded buffering.
const MaxSegmentEvents = 1 << 16

// Config parameterises streamed verification.
type Config struct {
	// SegmentEvents is the checkpoint window N (default
	// DefaultSegmentEvents). Smaller windows localize divergence
	// faster and abort earlier; larger windows cost fewer signatures.
	SegmentEvents int

	// Trace, when enabled, records a "segment" span per consumed
	// segment report on its track. The zero Scope (the default)
	// disables tracing; Consume then takes one extra branch and
	// allocates nothing.
	Trace obs.Scope

	// SegmentHist, when non-nil, records per-segment verify time in
	// nanoseconds. Nil (the default) costs one branch.
	SegmentHist *obs.Histogram
}

func (c *Config) fill() {
	if c.SegmentEvents <= 0 {
		c.SegmentEvents = DefaultSegmentEvents
	}
	if c.SegmentEvents > MaxSegmentEvents {
		c.SegmentEvents = MaxSegmentEvents
	}
}

// Divergence localizes the first point where the reported execution
// left the expected one.
type Divergence struct {
	// Segment is the index of the first divergent segment.
	Segment uint32
	// Offset is the edge offset of the divergence within that segment.
	Offset uint32
	// Event is the absolute control-flow event index of the divergence
	// (events counted from the start of the attested run).
	Event uint64
	// Got is the first offending reported edge; nil when the stream
	// ended before the expected path completed.
	Got *hashengine.Pair
	// Want is the edge the golden run took at the same position; nil
	// when the prover ran past the expected end of execution.
	Want *hashengine.Pair
}

// String renders the divergence for diagnostics.
func (d Divergence) String() string {
	fmtEdge := func(p *hashengine.Pair) string {
		if p == nil {
			return "(end of stream)"
		}
		return fmt.Sprintf("%#x->%#x", p.Src, p.Dest)
	}
	return fmt.Sprintf("segment %d offset %d (event %d): got %s, expected %s",
		d.Segment, d.Offset, d.Event, fmtEdge(d.Got), fmtEdge(d.Want))
}

// Result is the outcome of a streamed attestation session. It embeds
// the classic attest.Result (verdict, attack classification, findings,
// compared measurements) and adds the streaming-specific fields.
type Result struct {
	attest.Result
	// Segments is the number of segment reports the session consumed.
	Segments uint32
	// EarlyAbort reports that the session terminated before stream
	// close: the verifier stopped at the first divergent (or
	// malformed) segment while the device was still running.
	EarlyAbort bool
	// Divergence localizes the first divergent edge. Nil when the
	// session was accepted or when rejection happened at the protocol
	// layer (bad signature, out-of-order segment, ...).
	Divergence *Divergence
}

// errRejectedMidStream aborts a prover run whose verifier session has
// already reached a verdict.
var errRejectedMidStream = errors.New("stream: session rejected mid-stream")

// AttestOnce runs one full streamed attestation round in memory — the
// segmented analogue of lofat.System.AttestOnce: the prover's segments
// feed the verifier session directly as they seal, and a divergence
// verdict aborts the run at the first bad segment (exactly as a
// dropped transport would mid-run). observe, when non-nil, sees every
// segment report before it is verified (demo/diagnostic hook).
func AttestOnce(p *Prover, v *Verifier, input []uint32, observe func(*SegmentReport)) (Result, error) {
	s, open, err := v.Open(input)
	if err != nil {
		return Result{}, err
	}
	var verdict *Result
	cr, err := p.Stream(*open, func(sr *SegmentReport) error {
		if observe != nil {
			observe(sr)
		}
		if res := s.Consume(sr); res != nil {
			verdict = res
			return errRejectedMidStream
		}
		return nil
	})
	if verdict != nil {
		return *verdict, nil
	}
	if err != nil {
		s.Abort()
		return Result{}, err
	}
	return s.Close(cr), nil
}
