package attest_test

import (
	"crypto/rand"
	"testing"

	. "lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/sig"
	"lofat/internal/workloads"
)

func pumpInputs() [][]uint32 {
	return [][]uint32{
		{0xC0FFEE, 1, 4},
		{0xC0FFEE, 2, 5, 3},
		{0xC0FFEE, 3, 1, 2, 3},
		{0xBAD, 1, 4},
	}
}

// warm precomputes inputs and then takes the simulator away: with
// MaxInstructions 0 any golden run fails (Result.VerifierFault), so a
// verdict reached afterwards came from the expectation memo alone.
func warm(t *testing.T, v *Verifier, inputs [][]uint32) {
	t.Helper()
	if err := v.Precompute(inputs); err != nil {
		t.Fatal(err)
	}
	v.MaxInstructions = 0
}

func attestAndVerify(t *testing.T, p *Prover, v *Verifier, input []uint32, tamper func(*Report)) Result {
	t.Helper()
	ch, err := v.NewChallenge(input)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Attest(ch)
	if err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		tamper(rep)
	}
	return v.Verify(ch, rep)
}

func TestPrecomputeAndVerify(t *testing.T) {
	p, v := rig(t, workloads.SyringePump())
	inputs := pumpInputs()
	known, unknown := inputs[:len(inputs)-1], inputs[len(inputs)-1]
	warm(t, v, known)

	for _, in := range known {
		if res := attestAndVerify(t, p, v, in, nil); !res.Accepted {
			t.Errorf("input %v: honest run rejected after warm-up: %v %v", in, res, res.Findings)
		}
	}
	// Control: an input that was not precomputed needs the simulator.
	if res := attestAndVerify(t, p, v, unknown, nil); !res.VerifierFault {
		t.Errorf("input %v verified without a golden run: %v", unknown, res)
	}
}

func TestDBDetectsAttacks(t *testing.T) {
	atk, _ := workloads.AttackByName("loop-counter")
	prog, err := atk.Workload.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := sig.GenerateKeyStore(rand.Reader)
	p := NewProver(prog, core.Config{}, keys)
	v, err := NewVerifier(prog, core.Config{}, keys.Public(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	warm(t, v, [][]uint32{atk.Workload.Input})

	p.Adversary = atk.Build(prog)
	res := attestAndVerify(t, p, v, atk.Workload.Input, nil)
	if res.Accepted {
		t.Fatal("warmed verifier accepted the attack")
	}
	if res.Class != ClassLoopCounter {
		t.Errorf("classified %v, want loop-counter", res.Class)
	}
}

func TestDBRejectsBadSignature(t *testing.T) {
	p, v := rig(t, workloads.SyringePump())
	warm(t, v, pumpInputs()[:1])
	res := attestAndVerify(t, p, v, pumpInputs()[0], func(rep *Report) { rep.Sig[0] ^= 1 })
	if res.Accepted || res.Class != ClassSignature {
		t.Errorf("verdict = %v, want bad-signature", res)
	}
}
