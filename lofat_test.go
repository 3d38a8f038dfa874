package lofat_test

import (
	"strings"
	"testing"

	"lofat"
)

const countdown = `
main:
	li   s0, 5
loop:
	addi s0, s0, -1
	bnez s0, loop
	li   a7, 93
	ecall
`

func TestBuildSourceAndAttest(t *testing.T) {
	sys, err := lofat.BuildSource(countdown, lofat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AttestOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.Class != lofat.ClassAccepted {
		t.Fatalf("honest attestation rejected: %v", res)
	}
}

func TestMeasureSource(t *testing.T) {
	m, err := lofat.MeasureSource(countdown, lofat.DeviceConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Loops) != 1 {
		t.Fatalf("loops = %d", len(m.Loops))
	}
	if m.Stats.ProcessorStallCycles != 0 {
		t.Error("stalls nonzero")
	}
}

// TestBuildWorkload attests every workload of the suite as built, plain
// and streamed: BuildWorkload has to derive whatever the workload needs
// beyond paper defaults (pump-isr's interrupt schedule).
func TestBuildWorkload(t *testing.T) {
	for _, wl := range lofat.Workloads() {
		sys, w, err := lofat.BuildWorkload(wl.Name, lofat.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AttestOnce(w.Input)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Accepted {
			t.Errorf("%s rejected: %v %v", w.Name, res, res.Findings)
		}
		sres, err := sys.AttestStreamed(w.Input, 8)
		if err != nil {
			t.Fatalf("%s streamed: %v", w.Name, err)
		}
		if !sres.Accepted {
			t.Errorf("%s rejected streamed: %v %v", w.Name, sres, sres.Findings)
		}
	}
	if _, _, err := lofat.BuildWorkload("nope", lofat.Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAdversaryDetectedThroughFacade(t *testing.T) {
	for _, atk := range lofat.Attacks() {
		sys, err := lofat.Build(mustAssemble(t, atk.Workload.Source), lofat.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys.SetAdversary(atk.Build(sys.Program))
		res, err := sys.AttestOnce(atk.Workload.Input)
		if err != nil {
			t.Fatal(err)
		}
		wantAccepted := atk.Expect == lofat.ClassAccepted
		if res.Accepted != wantAccepted {
			t.Errorf("%s: accepted=%v, want %v", atk.Name, res.Accepted, wantAccepted)
		}
		if res.Class != atk.Expect {
			t.Errorf("%s classified %v, want %v", atk.Name, res.Class, atk.Expect)
		}
	}
}

func mustAssemble(t *testing.T, src string) *lofat.Program {
	t.Helper()
	p, err := lofat.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimateAreaFacade(t *testing.T) {
	r := lofat.EstimateArea(lofat.AreaConfig{})
	if r.BRAMTotal != 49 {
		t.Errorf("BRAM = %d, want 49", r.BRAMTotal)
	}
	if !strings.Contains(r.String(), "49 BRAM36") {
		t.Errorf("report string: %s", r)
	}
}

func TestRunCFLATFacade(t *testing.T) {
	prog := mustAssemble(t, countdown)
	res, err := lofat.RunCFLAT(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() <= 1 {
		t.Errorf("C-FLAT overhead = %.2f, want > 1", res.Overhead())
	}
}

func TestAssembleError(t *testing.T) {
	if _, err := lofat.BuildSource("bogus instruction", lofat.Options{}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := lofat.MeasureSource("bogus", lofat.DeviceConfig{}, nil); err == nil {
		t.Error("bad source accepted")
	}
}
