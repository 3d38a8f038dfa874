package attest_test

import (
	"runtime"
	"testing"

	. "lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/workloads"
)

// TestMeasureAllocBudget bounds what one whole attested capture of the
// syringe pump allocates. The per-event paths have zero-allocation
// proofs of their own (cpu, filter, monitor, hashengine, core); this is
// the end-to-end backstop over Measure itself, with the budget CI used
// to enforce through a one-iteration benchmark. With the machine and
// device pools empty a capture costs about 60 allocations (building
// both), with them warm 3; the pump retires some 600 instructions, so
// a change that allocates per instruction breaks the budget either way.
func TestMeasureAllocBudget(t *testing.T) {
	const budget = 400
	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, _, err := Measure(prog, core.Config{}, w.Input, 50_000_000); err != nil {
			t.Fatal(err)
		}
	}

	// The first capture, cold unless an earlier test filled the pools.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if first := after.Mallocs - before.Mallocs; first > budget {
		t.Errorf("first Measure allocated %d times, budget %d", first, budget)
	}
	if steady := testing.AllocsPerRun(20, run); steady > budget {
		t.Errorf("steady-state Measure allocates %v times per run, budget %d", steady, budget)
	}
}
