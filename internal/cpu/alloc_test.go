package cpu

import (
	"testing"

	"lofat/internal/asm"
	"lofat/internal/trace"
)

const allocProg = `
	li t0, 0
	li t1, 32
loop:
	addi t0, t0, 1
	bne t0, t1, loop
	li a0, 0
	li a7, 93
	ecall
`

// countBatch counts batched events without retaining them.
type countBatch struct{ n uint64 }

func (b *countBatch) RetireBatch(events []trace.Event) { b.n += uint64(len(events)) }
func (b *countBatch) Sync(uint64)                      {}

// TestRunHotPathZeroAlloc is the runtime proof behind the
// //lofat:zeroalloc annotations on the interpreter's fetch/decode/exec
// path: a predecoded counting loop runs to completion without a single
// steady-state allocation on the unmasked port drained after every Step
// (the per-event reference), on the masked port under Run (the halt
// flush included) and with no port wired.
func TestRunHotPathZeroAlloc(t *testing.T) {
	p, err := asm.Assemble(allocProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stepped, masked := &countBatch{}, &countBatch{}
	for _, port := range []struct {
		name    string
		perStep bool
		wire    func(*CPU)
	}{
		{"per-step", true, func(c *CPU) { c.TraceBatch, c.TraceCFOnly = stepped, false }},
		{"masked batch", false, func(c *CPU) { c.TraceBatch, c.TraceCFOnly = masked, true }},
		{"no port", false, func(c *CPU) { c.TraceBatch, c.TraceCFOnly = nil, false }},
	} {
		port.wire(mach.CPU)
		run := func() {
			if err := mach.Reset(); err != nil {
				panic(err)
			}
			for port.perStep && !mach.CPU.Halted {
				if err := mach.CPU.Step(); err != nil {
					panic(err)
				}
				mach.CPU.FlushTrace()
			}
			// Run returns at once on a core stepped to halt.
			if err := mach.CPU.Run(10000); err != nil {
				panic(err)
			}
			mach.CPU.FlushTrace()
		}
		run() // warm up
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Fatalf("%s: interpreter hot path allocates %v per run, want 0", port.name, n)
		}
	}
	if stepped.n == 0 || masked.n == 0 {
		t.Fatalf("a port never saw an event: per-step %d, masked batch %d", stepped.n, masked.n)
	}
}
