package stream

import (
	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/hashengine"
	"lofat/internal/isa"
	"lofat/internal/trace"
)

// SegmentFunc receives each sealed segment as the run streams. A
// non-nil error stops measurement: the run loop polls Err after every
// instruction and aborts the execution — this is how a verifier-side
// early abort propagates back into the device mid-run.
type SegmentFunc func(core.Segment) error

// Emitter is the device-side checkpoint unit: a trace.BatchSink wrapper
// over core.Device. Every event the core delivers is forwarded to the
// wrapped device unchanged (the end-of-run measurement (A, L) is
// exactly what it would be without streaming); in parallel the emitter
// records the (Src, Dest) edge of each measured control-flow event and
// seals a chained core.Segment every windowEvents edges. Like the
// device, it applies the configured attestation Region: events sourced
// outside the region are not part of the edge stream.
//
// With a nil SegmentFunc the emitter retains the sealed segments and
// attaches them to the final measurement — the golden-run mode the
// verifier uses to build per-segment expectations.
type Emitter struct {
	dev    *core.Device
	region core.Region
	window int
	emit   SegmentFunc

	chain  [hashengine.DigestSize]byte
	edges  []hashengine.Pair
	index  uint32
	events uint64
	segs   []core.Segment
	err    error
}

// NewEmitter wraps a LO-FAT device (built from devCfg) in a segment
// emitter with the given checkpoint window (<=0 selects
// DefaultSegmentEvents). emit receives sealed segments as the run
// streams; nil retains them for the final measurement instead.
func NewEmitter(dev *core.Device, devCfg core.Config, windowEvents int, emit SegmentFunc) *Emitter {
	if windowEvents <= 0 {
		windowEvents = DefaultSegmentEvents
	}
	return &Emitter{
		dev:    dev,
		region: devCfg.Region,
		window: windowEvents,
		emit:   emit,
		edges:  make([]hashengine.Pair, 0, windowEvents),
	}
}

// seal closes the current window into a segment and extends the chain.
func (e *Emitter) seal() {
	e.chain = hashengine.ChainPairs(e.chain, e.edges)
	seg := core.Segment{
		Index:  e.index,
		Events: uint32(len(e.edges)),
		Chain:  e.chain,
		Edges:  append([]hashengine.Pair(nil), e.edges...),
	}
	e.index++
	e.edges = e.edges[:0]
	if e.emit == nil {
		e.segs = append(e.segs, seg)
		return
	}
	if err := e.emit(seg); err != nil {
		e.err = err
	}
}

// RetireBatch implements trace.BatchSink, the core's trace port:
// the batch goes to the wrapped device unchanged, and every measured
// control-flow event in it adds an edge to the current window.
func (e *Emitter) RetireBatch(events []trace.Event) {
	e.dev.RetireBatch(events)
	for i := range events {
		if e.err != nil {
			return
		}
		ev := &events[i]
		if ev.Kind == isa.KindNone || !e.region.Contains(ev.PC) {
			continue
		}
		src, dest := ev.SrcDest()
		e.edges = append(e.edges, hashengine.Pair{Src: src, Dest: dest})
		e.events++
		if len(e.edges) >= e.window {
			e.seal()
		}
	}
}

// Sync implements trace.BatchSink by forwarding the core clock to the
// wrapped device (the emitter itself has no cycle state).
func (e *Emitter) Sync(cycle uint64) { e.dev.Sync(cycle) }

// Err reports the first SegmentFunc error; the prover's run loop polls
// it to abort an execution whose verifier has hung up.
func (e *Emitter) Err() error { return e.err }

// Events reports the number of control-flow edges observed so far.
func (e *Emitter) Events() uint64 { return e.events }

// SegmentCount reports the number of segments sealed so far.
func (e *Emitter) SegmentCount() uint32 { return e.index }

// ChainValue returns the current chain head.
func (e *Emitter) ChainValue() [hashengine.DigestSize]byte { return e.chain }

// Finalize seals the partial tail window (if any) and returns m, the
// wrapped device's end-of-run measurement, with the retained segments
// attached in golden-run mode. The SegmentFunc error, if any, is
// returned so callers do not mistake an aborted run for a complete one.
func (e *Emitter) Finalize(m core.Measurement) (core.Measurement, error) {
	if len(e.edges) > 0 && e.err == nil {
		e.seal()
	}
	m.Segments = e.segs
	return m, e.err
}

// MeasureStream golden-runs a program under a segment emitter and
// returns the measurement with per-segment checkpoints retained — the
// verifier-side half of segmented attestation. It mirrors
// attest.Measure, adding the streaming instrumentation.
func MeasureStream(prog *asm.Program, devCfg core.Config, input []uint32, segmentEvents int, budget uint64) (core.Measurement, uint32, error) {
	var em *Emitter
	meas, exitCode, err := attest.RunMeasured(prog, devCfg, input, budget, nil, func(dev *core.Device) (trace.BatchSink, func() error) {
		em = NewEmitter(dev, devCfg, segmentEvents, nil)
		return em, nil
	})
	if err != nil {
		return core.Measurement{}, 0, err
	}
	meas, _ = em.Finalize(meas) // emit is nil: no SegmentFunc error possible
	return meas, exitCode, nil
}
