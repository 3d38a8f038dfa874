package workloads_test

import (
	"reflect"
	"testing"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/workloads"
)

// runSlow measures a program through the seed slow path: no instruction
// cache (fetch+decode per step) and per-event delivery: the trace port
// unmasked and drained to the device after the step that retired each
// event.
func runSlow(t *testing.T, w workloads.Workload, devCfg core.Config, adv attest.Adversary) (core.Measurement, uint32) {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	mach, err := cpu.Load(prog, cpu.LoadOptions{})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	mach.CPU.ClearPredecode()
	dev := core.NewDevice(devCfg)
	mach.CPU.TraceBatch = dev
	mach.CPU.Input = w.Input
	if mach.CPU.IRQ, err = w.Schedule(prog); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	stepAll(t, w.Name, mach, adv, true)
	return dev.Finalize(), mach.CPU.ExitCode
}

// runFast measures the same program through the overhauled pipeline:
// predecoded instruction cache, batched trace port, control-flow-only
// mask whenever the device accepts it.
func runFast(t *testing.T, w workloads.Workload, devCfg core.Config, adv attest.Adversary) (core.Measurement, uint32) {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	mach, err := cpu.Load(prog, cpu.LoadOptions{})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	dev := core.NewDevice(devCfg)
	mach.CPU.TraceBatch = dev
	mach.CPU.TraceCFOnly = dev.CFOnlyCompatible()
	mach.CPU.Input = w.Input
	if mach.CPU.IRQ, err = w.Schedule(prog); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	stepAll(t, w.Name, mach, adv, false)
	return dev.Finalize(), mach.CPU.ExitCode
}

// stepAll steps mach to halt, running adv before every instruction and,
// when perStep is set, flushing the trace port after every instruction.
func stepAll(t *testing.T, name string, mach *cpu.Machine, adv attest.Adversary, perStep bool) {
	t.Helper()
	const budget = 50_000_000
	for !mach.CPU.Halted {
		if mach.CPU.Retired >= budget {
			t.Fatalf("%s: instruction budget exhausted", name)
		}
		if adv != nil {
			if err := adv(mach); err != nil {
				t.Fatalf("%s: adversary: %v", name, err)
			}
		}
		if err := mach.CPU.Step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if perStep {
			mach.CPU.FlushTrace()
		}
	}
}

func compareRuns(t *testing.T, name string, devCfg core.Config, w workloads.Workload, slowAdv, fastAdv attest.Adversary) {
	t.Helper()
	slow, slowExit := runSlow(t, w, devCfg, slowAdv)
	fast, fastExit := runFast(t, w, devCfg, fastAdv)
	if slowExit != fastExit {
		t.Errorf("%s: exit code: slow %d, fast %d", name, slowExit, fastExit)
	}
	if slow.Hash != fast.Hash {
		t.Errorf("%s: digest diverged:\n slow %x\n fast %x", name, slow.Hash[:8], fast.Hash[:8])
	}
	if !reflect.DeepEqual(slow.Loops, fast.Loops) {
		t.Errorf("%s: loop records diverged:\n slow %v\n fast %v", name, slow.Loops, fast.Loops)
	}
	if slow.Stats != fast.Stats {
		t.Errorf("%s: stats diverged:\n slow %+v\n fast %+v", name, slow.Stats, fast.Stats)
	}
}

// TestDifferentialFastPath proves the hot-path overhaul changes nothing
// observable: every workload (and every attack scenario) produces
// bit-identical measurement digests, loop records, and device stats
// through the seed slow path and the predecoded/batched/masked fast
// path.
func TestDifferentialFastPath(t *testing.T) {
	for _, w := range workloads.All2() {
		t.Run(w.Name, func(t *testing.T) {
			compareRuns(t, w.Name, core.Config{}, w, nil, nil)
		})
	}
}

// TestDifferentialFastPathAttacks repeats the differential comparison
// under every Figure 1 adversary: attacked executions must be measured
// identically too, or the verifier's classification would depend on
// which pipeline the device happened to use.
func TestDifferentialFastPathAttacks(t *testing.T) {
	for _, atk := range workloads.Attacks() {
		t.Run(atk.Name, func(t *testing.T) {
			prog, err := atk.Workload.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			// The adversary hooks are one-shot: build one per run.
			compareRuns(t, atk.Name, core.Config{}, atk.Workload, atk.Build(prog), atk.Build(prog))
		})
	}
}

// TestDifferentialFastPathRegion pins the region-gated configuration,
// where the control-flow-only mask must disable itself (the device needs
// every retired PC to flush loops at the region boundary).
func TestDifferentialFastPathRegion(t *testing.T) {
	for _, w := range []workloads.Workload{workloads.SyringePump(), workloads.CRC32()} {
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		// An arbitrary sub-range cutting through the program: the
		// measurement definition only requires slow/fast agreement.
		mid := prog.TextBase + uint32(len(prog.Text)/2)&^3
		cfg := core.Config{Region: core.Region{Start: prog.TextBase + 8, End: mid}}
		t.Run(w.Name, func(t *testing.T) {
			compareRuns(t, w.Name, cfg, w, nil, nil)
		})
	}
}
