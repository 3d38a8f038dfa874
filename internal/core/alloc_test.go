package core

import (
	"testing"

	"lofat/internal/isa"
	"lofat/internal/trace"
)

// TestDeviceHotPathZeroAlloc is the runtime proof behind the
// //lofat:zeroalloc annotations on the device's per-event path:
// RetireBatch, one event per call as a per-step drain delivers them or
// several at once, and Sync digest loop iterations without allocating
// once pools and scratch buffers are warm. Loop exit is deliberately
// outside the measured window — record emission copies the frame once
// per exit and carries an audited //lofat:ignore.
func TestDeviceHotPathZeroAlloc(t *testing.T) {
	d := NewDevice(Config{})
	mkEv := func(cycle uint64, pc, next uint32, kind isa.ControlFlowKind) trace.Event {
		return trace.Event{Cycle: cycle, PC: pc, NextPC: next, Kind: kind, Taken: true}
	}

	// Warmup: a full lifecycle (push, iterate, exit, reset) sizes the
	// loop-state pool, the path CAM, and the record buffer.
	lifecycle := []trace.Event{
		mkEv(1, 0x120, 0x100, isa.KindCondBr),
		mkEv(2, 0x11c, 0x100, isa.KindCondBr),
		mkEv(3, 0x118, 0x200, isa.KindJump),
	}
	d.RetireBatch(lifecycle)
	d.Reset()
	d.RetireBatch(lifecycle[:1]) // re-enter the loop

	iters := []trace.Event{
		mkEv(2, 0x110, 0x118, isa.KindCondBr), // in-body branch
		mkEv(3, 0x11c, 0x100, isa.KindCondBr), // iteration boundary
	}
	cycle := uint64(16)
	run := func() {
		for i := range iters {
			d.RetireBatch(iters[i : i+1])
		}
		d.RetireBatch(iters)
		cycle += 16
		d.Sync(cycle)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("device hot path allocates %v per run, want 0", n)
	}
	if d.Finalize().Stats.LoopEvents == 0 {
		t.Fatal("no loop events were attributed; the measured path was cold")
	}
}
