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
	m1.CPU.TraceBatch, m1.CPU.TraceCFOnly = &batchRecorder{}, true
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
	if m2.CPU.TraceBatch != nil || m2.CPU.TraceCFOnly || m2.CPU.Input != nil {
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

// TestBatchTraceMatchesSink proves the trace-port contract against the
// per-event reference: the port unmasked and drained by FlushTrace after
// every Step, which hands over each instruction's event before the next
// one retires. Run's batches deliver the identical event sequence, the
// control-flow-only mask drops exactly the KindNone events, Sync reaches
// the final cycle although the exit ecall is masked, and a core with no
// port wired retires identically. It covers an interrupt-free program
// and one under an IRQ schedule (takeIRQ's KindIRQEnter and mret's
// KindIRQRet on the trace), each driven by Run and by the streamed
// prover's Step + FlushTrace loop.
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
		// run drives a freshly loaded core to halt, by Run or by Step +
		// FlushTrace. Stepped, a recorder on the port must be current
		// after every step: synced to the core clock and, unmasked,
		// holding the event of the instruction that just retired.
		run := func(t *testing.T, stepped bool, wire func(*CPU)) *CPU {
			mach, err := Load(p, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := mach.CPU
			c.IRQ = sched
			wire(c)
			if !stepped {
				if err := c.Run(10000); err != nil {
					t.Fatal(err)
				}
				return c
			}
			rec, _ := c.TraceBatch.(*batchRecorder)
			for !c.Halted {
				if c.Retired >= 10000 {
					t.Fatal("instruction budget exhausted")
				}
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
				c.FlushTrace()
				if rec == nil {
					continue
				}
				if rec.synced != c.Cycle {
					t.Fatalf("after step %d: synced to cycle %d, core at %d", c.Retired, rec.synced, c.Cycle)
				}
				if n := len(rec.events); !c.TraceCFOnly &&
					(n == 0 || rec.events[n-1].Cycle != c.Cycle || rec.events[n-1].NextPC != c.PC) {
					t.Fatalf("after step %d: the retired instruction's event was not delivered", c.Retired)
				}
			}
			return c
		}

		ref := &batchRecorder{}
		refCPU := run(t, true, func(c *CPU) { c.TraceBatch = ref })
		if len(ref.events) == 0 || ref.events[len(ref.events)-1].Kind != isa.KindNone {
			t.Fatal("trace does not end in a masked exit ecall; nothing to test")
		}
		kinds := make(map[isa.ControlFlowKind]int)
		for _, e := range ref.events {
			kinds[e.Kind]++
		}
		if pr.irq && (kinds[isa.KindIRQEnter] == 0 || kinds[isa.KindIRQRet] == 0) {
			t.Fatalf("schedule produced no IRQ enter/return events: %v", kinds)
		}
		var wantMasked []trace.Event
		for _, e := range ref.events {
			if e.Kind != isa.KindNone {
				wantMasked = append(wantMasked, e)
			}
		}

		for _, stepped := range []bool{false, true} {
			name := pr.name + "/run"
			if stepped {
				name = pr.name + "/step"
			}
			t.Run(name, func(t *testing.T) {
				full, masked := &batchRecorder{}, &batchRecorder{}
				fullCPU := run(t, stepped, func(c *CPU) { c.TraceBatch = full })
				maskedCPU := run(t, stepped, func(c *CPU) { c.TraceBatch, c.TraceCFOnly = masked, true })
				bareCPU := run(t, stepped, func(*CPU) {})

				eventsEqual(t, "batched", full.events, ref.events)
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
						t.Errorf("%s: retired differently from the reference: pc=%#x cycle=%d retired=%d exit=%d output=%q, want pc=%#x cycle=%d retired=%d exit=%d output=%q",
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
