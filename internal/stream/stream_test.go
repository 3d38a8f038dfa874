package stream_test

import (
	"crypto/rand"
	"net"
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

// rig builds a streamed prover/verifier pair for a workload.
func rig(t testing.TB, w workloads.Workload, segmentEvents int) (*stream.Prover, *stream.Verifier) {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ap := attest.NewProver(prog, core.Config{}, keys)
	av, err := attest.NewVerifier(prog, core.Config{}, keys.Public(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewProver(ap), stream.NewVerifier(av, stream.Config{SegmentEvents: segmentEvents})
}

// runSession drives a full in-memory session: the prover's emit
// callback feeds the verifier session directly, and a divergence
// verdict aborts the run through the emit error, exactly like a
// dropped transport would.
func runSession(t testing.TB, p *stream.Prover, v *stream.Verifier, input []uint32) stream.Result {
	t.Helper()
	s, open, err := v.Open(input)
	if err != nil {
		t.Fatal(err)
	}
	var verdict *stream.Result
	abort := func() error { return net.ErrClosed }
	cr, err := p.Stream(*open, func(sr *stream.SegmentReport) error {
		if res := s.Consume(sr); res != nil {
			verdict = res
			return abort()
		}
		return nil
	})
	if verdict != nil {
		if err == nil {
			t.Fatal("prover completed despite mid-stream rejection")
		}
		return *verdict
	}
	if err != nil {
		t.Fatal(err)
	}
	return s.Close(cr)
}

// collectEdges is the independent oracle: it replays a (possibly
// attacked) execution with a bare trace tap — no stream machinery —
// and records the raw control-flow edge sequence.
func collectEdges(t testing.TB, w workloads.Workload, adv attest.Adversary) []hashengine.Pair {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := cpu.Load(prog, cpu.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var edges []hashengine.Pair
	mach.CPU.TraceBatch = tap(func(e trace.Event) {
		if e.Kind != isa.KindNone {
			src, dest := e.SrcDest()
			edges = append(edges, hashengine.Pair{Src: src, Dest: dest})
		}
	})
	mach.CPU.Input = w.Input
	for !mach.CPU.Halted {
		if adv != nil {
			if err := adv(mach); err != nil {
				t.Fatal(err)
			}
		}
		if err := mach.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return edges
}

// tap is a test's trace port: it hands every delivered event to fn.
type tap func(trace.Event)

func (fn tap) RetireBatch(events []trace.Event) {
	for _, e := range events {
		fn(e)
	}
}
func (tap) Sync(uint64) {}

// Honest streamed runs are accepted for every workload, and streaming
// does not perturb the device measurement: the close report's (A, L)
// match a plain end-of-run measurement.
func TestHonestStreamAccepted(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			p, v := rig(t, w, 16)
			res := runSession(t, p, v, w.Input)
			if !res.Accepted {
				t.Fatalf("honest streamed run rejected: %v %v", res.Class, res.Findings)
			}
			if res.EarlyAbort {
				t.Error("honest run flagged as early abort")
			}
			if res.Segments == 0 && len(collectEdges(t, w, nil)) > 0 {
				t.Error("no segments consumed for a run with control-flow events")
			}
			prog, err := w.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := attest.Measure(prog, core.Config{}, w.Input, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Got.Hash != plain.Hash {
				t.Error("streamed measurement hash differs from plain measurement")
			}
			if v.Inner().PendingChallenges() != 0 {
				t.Errorf("leaked %d nonces", v.Inner().PendingChallenges())
			}
		})
	}
}

// Attacked runs are rejected at the FIRST divergent segment, with the
// segment index and offending edge matching an independent edge-level
// diff of the benign vs attacked traces, and strictly earlier than the
// end of the run.
func TestAttacksLocalizedAtFirstDivergentSegment(t *testing.T) {
	const n = 8
	for _, atk := range workloads.Attacks() {
		if atk.Expect == attest.ClassAccepted {
			continue // pure data attacks are invisible by design
		}
		t.Run(atk.Name, func(t *testing.T) {
			prog, err := atk.Workload.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			p, v := rig(t, atk.Workload, n)
			p.Inner().Adversary = atk.Build(prog)

			// Oracle: first index where the attacked edge stream leaves
			// the benign one.
			benign := collectEdges(t, atk.Workload, nil)
			attacked := collectEdges(t, atk.Workload, atk.Build(prog))
			j := 0
			for j < len(benign) && j < len(attacked) && benign[j] == attacked[j] {
				j++
			}
			if j == len(benign) && j == len(attacked) {
				t.Fatal("attack did not change the edge stream")
			}

			res := runSession(t, p, v, atk.Workload.Input)
			if res.Accepted {
				t.Fatalf("attacked run accepted")
			}
			if !res.EarlyAbort {
				t.Error("attacked run not aborted early")
			}
			if res.Class != atk.Expect {
				t.Errorf("class = %v, want %v (findings: %v)", res.Class, atk.Expect, res.Findings)
			}
			d := res.Divergence
			if d == nil {
				t.Fatalf("no divergence localized (findings: %v)", res.Findings)
			}
			if want := uint32(j / n); d.Segment != want {
				t.Errorf("divergent segment = %d, want %d", d.Segment, want)
			}
			if d.Event != uint64(j) {
				t.Errorf("divergent event = %d, want %d", d.Event, j)
			}
			if j < len(attacked) {
				if d.Got == nil || *d.Got != attacked[j] {
					t.Errorf("offending edge = %v, want %#x->%#x", d.Got, attacked[j].Src, attacked[j].Dest)
				}
			}
			// Strictly earlier than end-of-run: the attacked run has
			// more segments than the session consumed.
			total := uint32((len(attacked) + n - 1) / n)
			if res.Segments >= total {
				t.Errorf("consumed %d segments, attacked run has %d: no early abort advantage", res.Segments, total)
			}
			if v.Inner().PendingChallenges() != 0 {
				t.Errorf("leaked %d nonces", v.Inner().PendingChallenges())
			}
		})
	}
}

// The full wire path: RequestStream over a pipe against ServeConn.
func TestStreamOverTransport(t *testing.T) {
	w := workloads.SyringePump()
	p, v := rig(t, w, 16)
	reg := stream.NewRegistry()
	reg.Register(p)

	t.Run("honest", func(t *testing.T) {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- reg.ServeConn(server) }()
		res, err := stream.RequestStream(client, v, w.Input, attest.Timeouts{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("honest stream rejected: %v %v", res.Class, res.Findings)
		}
		client.Close()
		server.Close()
		<-done
	})

	t.Run("attacked-aborts-mid-run", func(t *testing.T) {
		atk, _ := workloads.AttackByName("loop-counter")
		prog, err := atk.Workload.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		ap, av := rig(t, atk.Workload, 8)
		ap.Inner().Adversary = atk.Build(prog)
		r2 := stream.NewRegistry()
		r2.Register(ap)

		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- r2.ServeConn(server) }()
		res, err := stream.RequestStream(client, av, atk.Workload.Input, attest.Timeouts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted || !res.EarlyAbort {
			t.Fatalf("expected early-abort rejection, got %+v", res.Result)
		}
		if res.Class != attest.ClassLoopCounter {
			t.Errorf("class = %v, want %v", res.Class, attest.ClassLoopCounter)
		}
		// Dropping the transport must cut the prover off mid-run: the
		// serve loop exits with the aborted-stream error.
		client.Close()
		if err := <-done; err == nil {
			t.Error("prover served the attacked run to completion")
		}
		server.Close()
	})
}

// Protocol and authenticity violations are rejected at the right
// layer: out-of-order segments, tampered chains (signature), replays
// across sessions (nonce), and a close arriving before the stream is
// complete.
func TestStreamProtocolViolations(t *testing.T) {
	w := workloads.SyringePump()
	p, v := rig(t, w, 16)

	// collect opens a session and runs an honest prover against its
	// nonce, returning the live session plus the wire messages.
	collect := func() (*stream.Session, []*stream.SegmentReport, *stream.CloseReport) {
		t.Helper()
		s, open, err := v.Open(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		var segs []*stream.SegmentReport
		cr, err := p.Stream(*open, func(sr *stream.SegmentReport) error {
			segs = append(segs, sr)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 2 {
			t.Fatalf("need >=2 segments, got %d", len(segs))
		}
		return s, segs, cr
	}

	// Out-of-order segment (matching nonce, wrong index).
	s, segs, _ := collect()
	if res := s.Consume(segs[1]); res == nil || res.Accepted || res.Class != attest.ClassProtocol {
		t.Errorf("out-of-order segment verdict = %+v", res)
	}

	// Tampered chain: the signature covers it.
	s, segs, _ = collect()
	bad := *segs[0]
	bad.Chain[0] ^= 1
	if res := s.Consume(&bad); res == nil || res.Accepted || res.Class != attest.ClassSignature {
		t.Errorf("tampered chain verdict = %+v", res)
	}

	// Replay into a different session: the nonce echo catches it.
	sA, segsA, _ := collect()
	sB, _, _ := collect()
	if res := sB.Consume(segsA[0]); res == nil || res.Accepted || res.Class != attest.ClassProtocol {
		t.Errorf("replayed segment verdict = %+v", res)
	}
	sA.Abort()

	// Close before the stream is complete: an early end, not a pass.
	s, segs, cr := collect()
	if res := s.Consume(segs[0]); res != nil {
		t.Fatalf("honest first segment rejected: %+v", res)
	}
	if res := s.Close(cr); res.Accepted {
		t.Error("incomplete stream accepted at close")
	}

	if n := v.Inner().PendingChallenges(); n != 0 {
		t.Errorf("leaked %d nonces", n)
	}
}
