// Package trace defines the retired-instruction event stream the
// simulated core exposes to observers. This is the hardware interface of
// Figure 3: "the branch filter ... extracts the current program counter
// and instruction executed per clock cycle". LO-FAT's branch filter, the
// C-FLAT baseline's instrumentation shim, and test harnesses all consume
// the same stream through one port (BatchSink), which is what makes the
// comparison between them fair.
package trace

import "lofat/internal/isa"

// Event describes one retired instruction.
type Event struct {
	// Cycle is the clock cycle at which the instruction retired.
	Cycle uint64
	// PC is the address of the retired instruction (Src of a branch).
	PC uint32
	// Word is the raw instruction encoding.
	Word uint32
	// Inst is the decoded instruction.
	Inst isa.Inst
	// Kind classifies the instruction for the branch filter.
	Kind isa.ControlFlowKind
	// Taken reports whether a conditional branch was taken; true for
	// unconditional transfers, false for non-control-flow.
	Taken bool
	// NextPC is the address of the next instruction to execute (Dest
	// of a taken branch, fall-through otherwise).
	NextPC uint32
	// Linking reports whether the instruction updated the link
	// register (subroutine call), per the §5.1 loop heuristic.
	Linking bool
}

// IsBackward reports whether the event is a taken control transfer to an
// earlier address — the trigger for the loop-entry heuristic.
func (e Event) IsBackward() bool {
	return e.Kind != isa.KindNone && e.Taken && e.NextPC < e.PC
}

// SrcDest returns the (Src, Dest) address pair the LO-FAT hash engine
// absorbs for this control-flow event.
//
//lofat:zeroalloc
func (e Event) SrcDest() (uint32, uint32) { return e.PC, e.NextPC }

// IsInterrupt reports whether the event is an interrupt-dispatch or
// return-from-interrupt transfer rather than a retired instruction's
// edge. IRQ-enter events are pseudo-events published by the core's
// vector dispatch: no instruction retires, Word and Inst are zero, and
// (PC, NextPC) is the (interrupted PC, vector) pair.
//
//lofat:zeroalloc
func (e Event) IsInterrupt() bool {
	return e.Kind == isa.KindIRQEnter || e.Kind == isa.KindIRQRet
}

// BatchSink consumes retired-instruction events in batches: the core's
// trace port. The core buffers events and delivers them in program
// order once per batch instead of crossing an interface per retirement;
// a consumer that also cares about wall-clock alignment (the LO-FAT
// device ticking its hash engine in step with the processor) receives
// a Sync with the core clock at flush points, covering cycles whose
// events were withheld by the core-side control-flow-only mask.
//
// The batch slice is owned by the producer and reused across calls:
// implementations must not retain it (copy events they need).
type BatchSink interface {
	RetireBatch(events []Event)
	// Sync advances the observer's notion of the core clock to cycle
	// without delivering an event. Observers with no clock model ignore
	// it.
	Sync(cycle uint64)
}
