package cpu

import (
	"bytes"
	"testing"

	"lofat/internal/asm"
	"lofat/internal/isa"
	"lofat/internal/trace"
)

const reuseProg = `
	.data
counter:
	.word 0
	.text
main:
	la t0, counter
	lw t1, 0(t0)
	addi t1, t1, 1
	sw t1, 0(t0)
	li t2, 5
loop:
	addi t2, t2, -1
	bne t2, zero, loop
	mv a0, t1
	li a7, 93
	ecall
`

// TestMachineResetIsPristine proves Reset restores a just-loaded state:
// a program whose result depends on initial data-memory contents returns
// the same exit code on every reuse.
func TestMachineResetIsPristine(t *testing.T) {
	p, err := asm.Assemble(reuseProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := mach.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := mach.CPU.Run(1000); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// counter starts at 0 every run: exit code is always 1.
		if mach.CPU.ExitCode != 1 {
			t.Fatalf("run %d: exit %d, want 1 (stale data memory?)", i, mach.CPU.ExitCode)
		}
	}
}

// TestAcquireMachineReuses verifies the pool round-trip hands back the
// same machine, reset and with trace attachments dropped.
func TestAcquireMachineReuses(t *testing.T) {
	p, err := asm.Assemble(reuseProg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := AcquireMachine(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1.CPU.Trace = trace.SinkFunc(func(trace.Event) {})
	if err := m1.CPU.Run(1000); err != nil {
		t.Fatal(err)
	}
	ReleaseMachine(m1)

	m2, err := AcquireMachine(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseMachine(m2)
	if m2 != m1 {
		t.Skip("pool did not retain the machine (GC ran); nothing to verify")
	}
	if m2.CPU.Trace != nil || m2.CPU.TraceBatch != nil || m2.CPU.Input != nil {
		t.Fatal("pooled machine retained trace/input attachments")
	}
	if m2.CPU.Halted || m2.CPU.Retired != 0 || m2.CPU.PC != m2.Entry {
		t.Fatalf("pooled machine not reset: halted=%v retired=%d pc=%#x",
			m2.CPU.Halted, m2.CPU.Retired, m2.CPU.PC)
	}
	if err := m2.CPU.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m2.CPU.ExitCode != 1 {
		t.Fatalf("reused machine exit %d, want 1", m2.CPU.ExitCode)
	}
}

// batchRecorder collects batched events and Sync calls.
type batchRecorder struct {
	events []trace.Event
	synced uint64
}

func (r *batchRecorder) RetireBatch(events []trace.Event) {
	r.events = append(r.events, events...)
}
func (r *batchRecorder) Sync(cycle uint64) { r.synced = cycle }

// portProg prints through ecall from a counting main loop while the
// interrupt line dispatches a counting handler, so its trace carries
// ALU, ecall, branch and IRQ enter/return events and its Output is not
// empty. The handler touches only t4/t5.
const portProg = `
	.data
count:
	.word 0
	.text
main:
	li   t0, 0
	li   t1, 48
loop:
	addi t0, t0, 1
	andi t2, t0, 15
	bne  t2, zero, skip
	li   a0, 46
	li   a7, 64
	ecall
skip:
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

// TestBatchTraceMatchesSink proves the trace-port contract. The batched
// port delivers the identical event sequence as the per-event reference
// port, the control-flow-only mask drops exactly the KindNone events,
// Sync reaches the final cycle although the exit ecall is masked, and a
// core with no port wired retires identically. It covers an
// interrupt-free program and one under an IRQ schedule (takeIRQ's
// KindIRQEnter and mret's KindIRQRet on the trace), each driven by Run
// and by the streamed prover's Step + FlushTrace loop.
func TestBatchTraceMatchesSink(t *testing.T) {
	progs := []struct {
		name, src string
		irq       bool
	}{
		{"plain", reuseProg, false},
		{"irq", portProg, true},
	}
	for _, pr := range progs {
		p, err := asm.Assemble(pr.src)
		if err != nil {
			t.Fatal(err)
		}
		var sched IRQSchedule
		if pr.irq {
			vector, ok := p.Entry("isr")
			if !ok {
				t.Fatal("no isr label")
			}
			sched = IRQSchedule{Vector: vector, Phase: 5, Period: 37}
		}
		var runRef []trace.Event
		for _, stepped := range []bool{false, true} {
			name := pr.name + "/run"
			if stepped {
				name = pr.name + "/step"
			}
			t.Run(name, func(t *testing.T) {
				run := func(wire func(*CPU)) *CPU {
					mach, err := Load(p, LoadOptions{})
					if err != nil {
						t.Fatal(err)
					}
					mach.CPU.IRQ = sched
					wire(mach.CPU)
					if !stepped {
						if err := mach.CPU.Run(10000); err != nil {
							t.Fatal(err)
						}
						return mach.CPU
					}
					for !mach.CPU.Halted {
						if mach.CPU.Retired >= 10000 {
							t.Fatal("instruction budget exhausted")
						}
						if err := mach.CPU.Step(); err != nil {
							t.Fatal(err)
						}
						mach.CPU.FlushTrace()
					}
					return mach.CPU
				}

				var ref []trace.Event
				refCPU := run(func(c *CPU) {
					c.Trace = trace.SinkFunc(func(e trace.Event) { ref = append(ref, e) })
				})
				full, masked := &batchRecorder{}, &batchRecorder{}
				fullCPU := run(func(c *CPU) { c.TraceBatch = full })
				maskedCPU := run(func(c *CPU) { c.TraceBatch, c.TraceCFOnly = masked, true })
				bareCPU := run(func(*CPU) {})

				if len(ref) == 0 || ref[len(ref)-1].Kind != isa.KindNone {
					t.Fatal("trace does not end in a masked exit ecall; nothing to test")
				}
				kinds := make(map[isa.ControlFlowKind]int)
				for _, e := range ref {
					kinds[e.Kind]++
				}
				if pr.irq && (kinds[isa.KindIRQEnter] == 0 || kinds[isa.KindIRQRet] == 0) {
					t.Fatalf("schedule produced no IRQ enter/return events: %v", kinds)
				}
				if runRef == nil {
					runRef = ref
				} else {
					eventsEqual(t, "stepped reference vs Run reference", ref, runRef)
				}

				eventsEqual(t, "batched", full.events, ref)
				var wantMasked []trace.Event
				for _, e := range ref {
					if e.Kind != isa.KindNone {
						wantMasked = append(wantMasked, e)
					}
				}
				eventsEqual(t, "masked", masked.events, wantMasked)

				for _, r := range []struct {
					name string
					rec  *batchRecorder
					c    *CPU
				}{{"batched", full, fullCPU}, {"masked", masked, maskedCPU}} {
					if r.rec.synced != r.c.Cycle {
						t.Errorf("%s: synced to cycle %d, core at %d", r.name, r.rec.synced, r.c.Cycle)
					}
				}
				for _, c := range []struct {
					name string
					c    *CPU
				}{{"batched", fullCPU}, {"masked", maskedCPU}, {"no port", bareCPU}} {
					if !sameRetirement(c.c, refCPU) {
						t.Errorf("%s: retired differently from the reference port: pc=%#x cycle=%d retired=%d exit=%d output=%q, want pc=%#x cycle=%d retired=%d exit=%d output=%q",
							c.name, c.c.PC, c.c.Cycle, c.c.Retired, c.c.ExitCode, c.c.Output,
							refCPU.PC, refCPU.Cycle, refCPU.Retired, refCPU.ExitCode, refCPU.Output)
					}
				}
			})
		}
	}
}

// eventsEqual fails t unless got and want are the same event sequence.
func eventsEqual(t *testing.T, what string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs: got %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// sameRetirement reports whether two halted cores ended in the same
// architectural state.
func sameRetirement(a, b *CPU) bool {
	return a.Regs == b.Regs && a.PC == b.PC && a.Cycle == b.Cycle && a.Retired == b.Retired &&
		a.ExitCode == b.ExitCode && a.IRQsTaken() == b.IRQsTaken() && bytes.Equal(a.Output, b.Output)
}

// TestBatchTraceSyncAtHalt verifies the observer clock is synced to the
// final core cycle even when the mask withholds the trailing events.
func TestBatchTraceSyncAtHalt(t *testing.T) {
	p, err := asm.Assemble(reuseProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := &batchRecorder{}
	mach.CPU.TraceBatch = r
	mach.CPU.TraceCFOnly = true
	if err := mach.CPU.Run(1000); err != nil {
		t.Fatal(err)
	}
	if r.synced != mach.CPU.Cycle {
		t.Fatalf("synced to cycle %d, core at %d", r.synced, mach.CPU.Cycle)
	}
}

// TestPredecodeFallback executes from a PC outside the instruction cache
// window (after clearing it mid-flight) to pin the fetch+decode
// fallback, and checks invalid cached words still error at execution.
func TestPredecodeFallback(t *testing.T) {
	p, err := asm.Assemble(reuseProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mach.CPU.ClearPredecode()
	if err := mach.CPU.Run(1000); err != nil {
		t.Fatal(err)
	}
	if mach.CPU.ExitCode != 1 {
		t.Fatalf("fallback path exit %d, want 1", mach.CPU.ExitCode)
	}

	// An undecodable word in the cache must fault with a decode error
	// when reached, exactly like the uncached path.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	c := New(mach.Mem)
	c.Predecode(0x1000, bad)
	c.PC = 0x1000
	if err := c.Step(); err == nil {
		t.Fatal("invalid cached word did not fault")
	}
}
