package stream_test

import (
	"crypto/rand"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/hashengine"
	"lofat/internal/isa"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/trace"
	"lofat/internal/workloads"
)

// A failed emit stops the device within one instruction. The prover runs
// on the pooled, batched trace port; what keeps the abort that prompt is
// the flush before every poll, so this pins it against the per-event
// reference, the unmasked port drained after every Step: the adversary
// hook (invoked before every instruction) has run exactly as often as
// instructions had retired when the failing window's last edge did, and
// never again; the segments handed to emit are the reference
// segmentation; and the machine and device the aborted run put back in
// their pools measure the next runs correctly. The Region case runs the
// prover's port unmasked (CFOnlyCompatible is false).
func TestStreamAbortsWithinOneInstruction(t *testing.T) {
	const failAt = 1 // index of the segment whose emit fails
	w := workloads.SyringePump()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cfg    core.Config
		window int
	}{
		{"whole-program", core.Config{}, 8},
		{"region", core.Config{Region: core.Region{Start: prog.Labels["bolus_loop"], End: prog.Labels["bolus_done"]}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: a fresh machine and device, drained per step.
			mach, err := cpu.Load(prog, cpu.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dev := core.NewDevice(tc.cfg)
			var edges []hashengine.Pair
			var retiredAt []uint64 // instructions retired once edges[i] had
			mach.CPU.TraceBatch = devTap{dev, func(e trace.Event) {
				if e.Kind != isa.KindNone && tc.cfg.Region.Contains(e.PC) {
					src, dest := e.SrcDest()
					edges = append(edges, hashengine.Pair{Src: src, Dest: dest})
					retiredAt = append(retiredAt, mach.CPU.Retired)
				}
			}}
			mach.CPU.Input = w.Input
			for !mach.CPU.Halted {
				if mach.CPU.Retired >= 1_000_000 {
					t.Fatal("instruction budget exhausted")
				}
				if err := mach.CPU.Step(); err != nil {
					t.Fatal(err)
				}
				mach.CPU.FlushTrace()
			}
			ref := dev.Finalize()
			want := stream.ChunkEdges(edges, tc.window)
			if len(want) <= failAt+1 {
				t.Fatalf("need more than %d segments, reference run has %d", failAt+1, len(want))
			}

			keys, err := sig.GenerateKeyStore(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ap := attest.NewProver(prog, tc.cfg, keys)
			var calls uint64
			ap.Adversary = func(*cpu.Machine) error { calls++; return nil }
			p := stream.NewProver(ap)
			open := stream.OpenRequest{Program: p.ProgramID(), Input: w.Input, SegmentEvents: uint32(tc.window)}

			errHungUp := errors.New("verifier hung up")
			var got []*stream.SegmentReport
			var callsAtFail uint64
			_, err = p.Stream(open, func(sr *stream.SegmentReport) error {
				got = append(got, sr)
				if sr.Index == failAt {
					callsAtFail = calls
					return errHungUp
				}
				return nil
			})
			if !errors.Is(err, errHungUp) {
				t.Fatalf("Stream error = %v, want the emit error", err)
			}
			if wantCalls := retiredAt[(failAt+1)*tc.window-1]; callsAtFail != wantCalls {
				t.Errorf("emit failed after %d instructions, the window closed after %d", callsAtFail, wantCalls)
			}
			if calls != callsAtFail {
				t.Errorf("device ran %d more instructions after emit failed", calls-callsAtFail)
			}
			if len(got) != failAt+1 {
				t.Fatalf("emit saw %d segments, want %d", len(got), failAt+1)
			}
			for i, sr := range got {
				seg := core.Segment{Index: sr.Index, Events: sr.Events, Chain: sr.Chain, Edges: sr.Edges}
				if !reflect.DeepEqual(seg, want[i]) {
					t.Errorf("segment %d differs from the reference segmentation", i)
				}
			}

			// Pool hygiene after the abort.
			cr, err := p.Stream(open, func(*stream.SegmentReport) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if cr.Report.Hash != ref.Hash || !reflect.DeepEqual(cr.Report.Loops, ref.Loops) {
				t.Error("Stream after an aborted run: (A, L) differ from a fresh machine and device")
			}
			if int(cr.Segments) != len(want) || cr.Chain != want[len(want)-1].Chain {
				t.Error("Stream after an aborted run: segment chain differs from the reference")
			}
			rep, err := ap.Attest(attest.Challenge{Program: ap.ProgramID(), Input: w.Input})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Hash != ref.Hash || !reflect.DeepEqual(rep.Loops, ref.Loops) {
				t.Error("Attest after an aborted run: (A, L) differ from a fresh machine and device")
			}
		})
	}
}

// devTap is a trace port that feeds a device and hands every event it
// delivers to fn as well.
type devTap struct {
	*core.Device
	fn tap
}

func (d devTap) RetireBatch(events []trace.Event) {
	d.Device.RetireBatch(events)
	d.fn.RetireBatch(events)
}

// TestStreamAllocBudget is TestMeasureAllocBudget's twin for a streamed
// device round: one steady-state Prover.Stream of the syringe pump at
// window 8 with a no-op emit. A run costs a constant (reports,
// signatures, the emitter and its closures) plus a per-segment term
// (edge copy, report, payload, signature), and far less than the
// ~140 KB a freshly loaded machine and device would: the budget fails
// if streamed provers ever leave the pooled path again. It is held
// against the best of 20 runs, not their mean: under the race detector
// sync.Pool drops a quarter of what is put back, and those misses are
// the detector's; a prover off the pooled path misses on every run.
func TestStreamAllocBudget(t *testing.T) {
	const (
		fixedAllocs      = 16
		perSegmentAllocs = 6
		maxBytes         = 16 << 10
	)
	p, _ := rig(t, workloads.SyringePump(), 8)
	open := stream.OpenRequest{Program: p.ProgramID(), Input: workloads.SyringePump().Input, SegmentEvents: 8}
	var segments uint32
	run := func() {
		cr, err := p.Stream(open, func(*stream.SegmentReport) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		segments = cr.Segments
	}
	run() // fill the pools

	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if budget := uint64(fixedAllocs + perSegmentAllocs*segments); allocs > budget {
		t.Errorf("steady-state Stream allocates %d times per run (%d segments), budget %d", allocs, segments, budget)
	}
	if bytes > maxBytes {
		t.Errorf("steady-state Stream allocates %d bytes per run, budget %d", bytes, maxBytes)
	}
}
