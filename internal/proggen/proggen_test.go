package proggen

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/cfg"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/isa"
	"lofat/internal/sig"
	"lofat/internal/trace"
)

const seeds = 60

func genProgram(t *testing.T, seed int64) (*asm.Program, string) {
	t.Helper()
	src := Generate(rand.New(rand.NewSource(seed)), Config{})
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
	}
	return prog, src
}

func buildGraph(t *testing.T, prog *asm.Program) *cfg.Graph {
	t.Helper()
	words := make([]uint32, 0, len(prog.Data)/4)
	for i := 0; i+4 <= len(prog.Data); i += 4 {
		words = append(words, binary.LittleEndian.Uint32(prog.Data[i:]))
	}
	g, err := cfg.Build(prog.Text, prog.TextBase, words)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Property: every generated program assembles, terminates, and is
// deterministic (same exit code, cycles, and measurement twice).
func TestGeneratedProgramsTerminateDeterministically(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog, src := genProgram(t, seed)
		run := func() (uint32, uint64, core.Measurement) {
			mach, err := cpu.Load(prog, cpu.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dev := core.NewDevice(core.Config{})
			mach.CPU.TraceBatch = dev
			if err := mach.CPU.Run(3_000_000); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			return mach.CPU.ExitCode, mach.CPU.Cycle, dev.Finalize()
		}
		e1, c1, m1 := run()
		e2, c2, m2 := run()
		if e1 != e2 || c1 != c2 || m1.Hash != m2.Hash {
			t.Fatalf("seed %d: nondeterministic run", seed)
		}
	}
}

// Property: every control-flow edge the core executes is valid per the
// verifier's static CFG analysis — ValidEdge never rejects a real edge
// (soundness; completeness is what catches attacks).
func TestExecutedEdgesAreCFGValid(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog, src := genProgram(t, seed)
		g := buildGraph(t, prog)
		mach, err := cpu.Load(prog, cpu.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		mach.CPU.TraceBatch = edgeCheck(func(e trace.Event) {
			if e.Kind == isa.KindNone {
				return
			}
			src, dest := e.SrcDest()
			if !g.ValidEdge(src, dest) {
				bad++
				t.Errorf("seed %d: executed edge %#x->%#x (%v) rejected by CFG",
					seed, src, dest, e.Kind)
			}
		})
		if err := mach.CPU.Run(3_000_000); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if bad > 3 {
			t.Fatalf("seed %d: too many invalid edges; aborting", seed)
		}
	}
}

// edgeCheck is a trace port that hands every delivered event to a check.
type edgeCheck func(trace.Event)

func (f edgeCheck) RetireBatch(events []trace.Event) {
	for _, e := range events {
		f(e)
	}
}
func (edgeCheck) Sync(uint64) {}

// Property: conservation — every control-flow event is either hashed or
// deduplicated; the device never loses an edge; no stalls; no drops.
func TestDeviceConservation(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog, _ := genProgram(t, seed)
		m, _, err := attest.Measure(prog, core.Config{}, nil, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats
		if st.HashedPairs+st.DedupedPairs != st.ControlFlowEvents {
			t.Errorf("seed %d: hashed %d + deduped %d != events %d",
				seed, st.HashedPairs, st.DedupedPairs, st.ControlFlowEvents)
		}
		if st.ProcessorStallCycles != 0 {
			t.Errorf("seed %d: stalls %d", seed, st.ProcessorStallCycles)
		}
		if st.Engine.Dropped != 0 {
			t.Errorf("seed %d: engine dropped %d", seed, st.Engine.Dropped)
		}
		if st.LoopsDetected != st.LoopExits {
			t.Errorf("seed %d: pushes %d != exits %d (post-finalize)",
				seed, st.LoopsDetected, st.LoopExits)
		}
	}
}

// Property: honest loop metadata never fails the verifier's CFG path
// walks — the monitor's encoding and the walker's decoding agree on
// every loop the walker can decide.
func TestHonestRecordsPassPathWalks(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog, src := genProgram(t, seed)
		g := buildGraph(t, prog)
		m, _, err := attest.Measure(prog, core.Config{}, nil, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range m.Loops {
			for _, wr := range g.ValidateRecord(rec, 4) {
				if wr.Verdict == cfg.PathInvalid {
					t.Errorf("seed %d: honest record %v flagged: %s\n%s",
						seed, rec, wr.Reason, src)
				}
			}
		}
	}
}

// Property: the full protocol accepts every honest generated program.
func TestHonestAttestationAlwaysAccepted(t *testing.T) {
	for seed := int64(0); seed < seeds; seed += 4 { // protocol is heavier; sample
		prog, src := genProgram(t, seed)
		keys, err := sig.GenerateKeyStore(rand.New(rand.NewSource(seed + 1)))
		if err != nil {
			t.Fatal(err)
		}
		p := attest.NewProver(prog, core.Config{}, keys)
		v, err := attest.NewVerifier(prog, core.Config{}, keys.Public(),
			rand.New(rand.NewSource(seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := v.NewChallenge(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Attest(ch)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if res := v.Verify(ch, rep); !res.Accepted {
			t.Errorf("seed %d: honest program rejected: %v %v\n%s",
				seed, res, res.Findings, src)
		}
	}
}

// Property: random data corruption mid-run either leaves the path
// unchanged or is caught — it can never be accepted with a different
// measurement. (The verifier compares measurements exactly, so this is
// the no-false-negative property at measurement level.)
func TestRandomCorruptionNeverAcceptedWithDifferentPath(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog, _ := genProgram(t, seed)
		keys, err := sig.GenerateKeyStore(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		p := attest.NewProver(prog, core.Config{}, keys)
		v, err := attest.NewVerifier(prog, core.Config{}, keys.Public(),
			rand.New(rand.NewSource(seed+99)))
		if err != nil {
			t.Fatal(err)
		}

		// Adversary: after ~200 instructions, flip a random bit in the
		// scratch/data area once.
		rng := rand.New(rand.NewSource(seed * 7))
		scratch := prog.Labels["scratch"]
		count := 0
		p.Adversary = func(m *cpu.Machine) error {
			count++
			if count == 200 {
				addr := scratch + uint32(rng.Intn(16))*4
				val, err := m.Mem.Peek(addr)
				if err != nil {
					return err
				}
				return m.Mem.Poke(addr, val^(1<<uint(rng.Intn(32))))
			}
			return nil
		}

		ch, err := v.NewChallenge(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Attest(ch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := v.Verify(ch, rep)
		// The generated programs never read scratch, so the path is
		// unchanged and the run must be ACCEPTED — corruption of dead
		// data is invisible to CFA, exactly as the paper scopes it.
		if !res.Accepted {
			t.Errorf("seed %d: dead-data corruption rejected: %v %v", seed, res, res.Findings)
		}
	}
}
