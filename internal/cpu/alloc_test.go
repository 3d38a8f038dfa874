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
// steady-state allocation, on the per-event port, on the masked batched
// port (the halt flush included) and with no port wired.
func TestRunHotPathZeroAlloc(t *testing.T) {
	p, err := asm.Assemble(allocProg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var retired uint64
	batched := &countBatch{}
	for _, port := range []struct {
		name string
		wire func(*CPU)
	}{
		{"per-event", func(c *CPU) { c.Trace = trace.SinkFunc(func(trace.Event) { retired++ }) }},
		{"masked batch", func(c *CPU) { c.Trace, c.TraceBatch, c.TraceCFOnly = nil, batched, true }},
		{"no port", func(c *CPU) { c.Trace, c.TraceBatch, c.TraceCFOnly = nil, nil, false }},
	} {
		port.wire(mach.CPU)
		run := func() {
			if err := mach.Reset(); err != nil {
				panic(err)
			}
			if err := mach.CPU.Run(10000); err != nil {
				panic(err)
			}
			mach.CPU.FlushTrace()
		}
		run() // warm the lazy trace batch buffer
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Fatalf("%s: interpreter hot path allocates %v per run, want 0", port.name, n)
		}
	}
	if retired == 0 || batched.n == 0 {
		t.Fatalf("a port never saw an event: per-event %d, masked batch %d", retired, batched.n)
	}
}
