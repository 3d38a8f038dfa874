package cpu

import (
	"testing"

	"lofat/internal/asm"
	"lofat/internal/isa"
	"lofat/internal/trace"
)

// irqProg is a counting main loop plus an interrupt handler that bumps
// a counter word. The handler touches only t4/t5 so the interrupted
// loop's registers are preserved across any dispatch point.
const irqProg = `
	.data
count:
	.word 0
	.text
main:
	li   t0, 0
	li   t1, 64
loop:
	addi t0, t0, 1
	bne  t0, t1, loop
	la   t4, count
	lw   a0, 0(t4)
	li   a7, 93
	ecall
isr:
	la   t4, count
	lw   t5, 0(t4)
	addi t5, t5, 1
	sw   t5, 0(t4)
	mret
`

func loadIRQProg(t *testing.T) (*Machine, uint32) {
	t.Helper()
	p, err := asm.Assemble(irqProg)
	if err != nil {
		t.Fatal(err)
	}
	vector, ok := p.Entry("isr")
	if !ok {
		t.Fatal("no isr label")
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return mach, vector
}

// TestIRQDispatchAndReturn drives the deterministic interrupt line
// through a full program: every dispatch must publish a KindIRQEnter
// pseudo-event whose (PC, NextPC) pair is (interrupted PC, vector),
// every mret a KindIRQRet event resuming at the interrupted PC, and
// the program's exit code must count exactly the dispatches the
// schedule prescribes.
func TestIRQDispatchAndReturn(t *testing.T) {
	mach, vector := loadIRQProg(t)
	mach.CPU.IRQ = IRQSchedule{Vector: vector, Phase: 10, Period: 40, Count: 3}

	rec := &batchRecorder{}
	mach.CPU.TraceBatch = rec
	if err := mach.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := mach.CPU.Run(10000); err != nil {
		t.Fatal(err)
	}
	var enters, rets int
	var pendingEPC uint32
	for _, e := range rec.events {
		switch e.Kind {
		case isa.KindIRQEnter:
			enters++
			if e.NextPC != vector {
				t.Errorf("IRQ enter edge %#x->%#x, want dest %#x", e.PC, e.NextPC, vector)
			}
			if e.Word != 0 || e.Inst != (isa.Inst{}) {
				t.Errorf("IRQ enter pseudo-event carries an instruction: %+v", e)
			}
			if !e.IsInterrupt() {
				t.Error("IsInterrupt() = false for KindIRQEnter")
			}
			pendingEPC = e.PC
		case isa.KindIRQRet:
			rets++
			if e.NextPC != pendingEPC {
				t.Errorf("mret resumed at %#x, want interrupted PC %#x", e.NextPC, pendingEPC)
			}
		}
	}
	if enters != 3 || rets != 3 {
		t.Fatalf("enters=%d rets=%d, want 3/3 (Count=3)", enters, rets)
	}
	if got := mach.CPU.IRQsTaken(); got != 3 {
		t.Fatalf("IRQsTaken() = %d, want 3", got)
	}
	if mach.CPU.InISR() {
		t.Fatal("InISR() still true after halt")
	}
	if mach.CPU.ExitCode != 3 {
		t.Fatalf("exit code %d, want the 3 handler increments", mach.CPU.ExitCode)
	}
}

// TestIRQScheduleReplaysIdentically runs the same schedule twice and
// requires the full event streams to match event-for-event: the
// interrupt line is part of the deterministic measurement definition.
func TestIRQScheduleReplaysIdentically(t *testing.T) {
	mach, vector := loadIRQProg(t)
	capture := func() []trace.Event {
		rec := &batchRecorder{}
		mach.CPU.TraceBatch = rec
		mach.CPU.IRQ = IRQSchedule{Vector: vector, Phase: 7, Period: 23}
		if err := mach.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := mach.CPU.Run(10000); err != nil {
			t.Fatal(err)
		}
		return rec.events
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across replays:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestIRQOneShotAndUnlimited pins the Period/Count degenerate cases:
// Period 0 fires exactly once, Count 0 leaves the line free-running.
func TestIRQOneShotAndUnlimited(t *testing.T) {
	mach, vector := loadIRQProg(t)
	run := func(s IRQSchedule) uint64 {
		mach.CPU.IRQ = s
		if err := mach.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := mach.CPU.Run(10000); err != nil {
			t.Fatal(err)
		}
		return mach.CPU.IRQsTaken()
	}
	if n := run(IRQSchedule{Vector: vector, Phase: 5}); n != 1 {
		t.Fatalf("one-shot (Period 0) dispatched %d times, want 1", n)
	}
	if n := run(IRQSchedule{Vector: vector, Phase: 5, Period: 30}); n < 2 {
		t.Fatalf("free-running line dispatched %d times, want several", n)
	}
	if n := run(IRQSchedule{}); n != 0 {
		t.Fatalf("disabled line dispatched %d times, want 0", n)
	}
}

// TestMRETOutsideHandlerFaults: an mret with no interrupt in flight is
// a fault, not a silent jump — corrupted code memory must be detected.
func TestMRETOutsideHandlerFaults(t *testing.T) {
	p, err := asm.Assemble("main:\n\tmret\n")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.CPU.Run(10); err == nil {
		t.Fatal("mret outside a handler did not fault")
	}
}

// TestIRQHotPathZeroAlloc extends the interpreter's zero-allocation
// proof to the interrupt path: dispatch (takeIRQ/pendingIRQ/emit) and
// mret return must not allocate either. Covers CPU.InISR and
// CPU.IRQsTaken as well.
func TestIRQHotPathZeroAlloc(t *testing.T) {
	mach, vector := loadIRQProg(t)
	events := &countBatch{}
	mach.CPU.TraceBatch = events
	mach.CPU.IRQ = IRQSchedule{Vector: vector, Phase: 3, Period: 17}
	run := func() {
		if err := mach.Reset(); err != nil {
			panic(err)
		}
		if err := mach.CPU.Run(10000); err != nil {
			panic(err)
		}
		mach.CPU.FlushTrace()
		if mach.CPU.IRQsTaken() == 0 || mach.CPU.InISR() {
			panic("schedule did not dispatch")
		}
	}
	run() // warm lazy buffers
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("interrupt hot path allocates %v per run, want 0", n)
	}
	if events.n == 0 {
		t.Fatal("trace port never saw an event")
	}
}

// TestReleaseMachineClearsIRQ: pooled machines must not leak one
// run's interrupt schedule into the next acquirer.
func TestReleaseMachineClearsIRQ(t *testing.T) {
	p, err := asm.Assemble(irqProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := AcquireMachine(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vector, _ := p.Entry("isr")
	mach.CPU.IRQ = IRQSchedule{Vector: vector, Phase: 1, Period: 10}
	ReleaseMachine(mach)
	mach2, err := AcquireMachine(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseMachine(mach2)
	if mach2.CPU.IRQ != (IRQSchedule{}) {
		t.Fatalf("pooled machine kept IRQ schedule %+v", mach2.CPU.IRQ)
	}
}
