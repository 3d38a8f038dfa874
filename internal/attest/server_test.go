package attest_test

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"testing"

	. "lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/obs"
	"lofat/internal/sig"
	"lofat/internal/workloads"
)

// multiRig registers several workloads on one device registry and
// returns per-workload verifiers sharing the device key.
func multiRig(t *testing.T, names ...string) (*Registry, map[string]*Verifier, map[string]workloads.Workload) {
	t.Helper()
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	verifiers := make(map[string]*Verifier)
	ws := make(map[string]workloads.Workload)
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(NewProver(prog, core.Config{}, keys))
		v, err := NewVerifier(prog, core.Config{}, keys.Public(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		verifiers[name] = v
		ws[name] = w
	}
	return reg, verifiers, ws
}

func TestRegistryRouting(t *testing.T) {
	reg, verifiers, ws := multiRig(t, "syringe-pump", "dispatch", "crc32")
	if reg.Len() != 3 {
		t.Fatalf("registry len = %d", reg.Len())
	}

	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One persistent connection, multiple programs over it.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, name := range []string{"dispatch", "syringe-pump", "crc32", "dispatch"} {
		res, err := RequestAttestation(conn, verifiers[name], ws[name].Input, Timeouts{}, obs.Scope{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Accepted {
			t.Errorf("%s rejected: %v %v", name, res, res.Findings)
		}
	}
}

func TestRegistryUnknownProgram(t *testing.T) {
	reg, _, _ := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A verifier for a program the device does not run.
	w := workloads.BubbleSort()
	prog, _ := w.Assemble()
	keys, _ := sig.GenerateKeyStore(rand.Reader)
	v, err := NewVerifier(prog, core.Config{}, keys.Public(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := RequestAttestation(conn, v, w.Input, Timeouts{}, obs.Scope{}); err == nil {
		t.Error("unknown program request succeeded")
	}
}

func TestListenTwice(t *testing.T) {
	reg, _, _ := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen on a live server succeeded")
	}
}

func TestFailedExchangeRetiresNonce(t *testing.T) {
	_, verifiers, ws := multiRig(t, "syringe-pump")
	v := verifiers["syringe-pump"]

	// The peer hangs up before answering: every exchange fails after
	// the challenge nonce was drawn, and each failure must retire it.
	for i := 0; i < 3; i++ {
		client, server := net.Pipe()
		server.Close()
		if _, err := RequestAttestation(client, v, ws["syringe-pump"].Input, Timeouts{}, obs.Scope{}); err == nil {
			t.Fatal("exchange with hung-up prover succeeded")
		}
		client.Close()
	}
	if n := v.PendingChallenges(); n != 0 {
		t.Fatalf("failed exchanges leaked %d nonces", n)
	}
}

func TestVerifyRetiresNonceOnProtocolReject(t *testing.T) {
	reg, verifiers, ws := multiRig(t, "syringe-pump")
	v := verifiers["syringe-pump"]
	p, ok := reg.Lookup(v.ProgramID())
	if !ok {
		t.Fatal("prover missing")
	}
	ch, err := v.NewChallenge(ws["syringe-pump"].Input)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Attest(ch)
	if err != nil {
		t.Fatal(err)
	}
	// A tampered nonce echo is rejected before the signature check —
	// but the issued nonce must still be retired.
	rep.Nonce[0] ^= 1
	res := v.Verify(ch, rep)
	if res.Accepted || res.Class != ClassProtocol {
		t.Fatalf("tampered report: %v", res)
	}
	if n := v.PendingChallenges(); n != 0 {
		t.Fatalf("protocol reject leaked %d nonces", n)
	}
}

func TestListenAfterClose(t *testing.T) {
	reg, _, _ := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != ErrServerClosed {
		t.Fatalf("Listen after Close = %v, want ErrServerClosed", err)
	}
	// The old address must not have been rebound.
	if conn, err := net.Dial("tcp", addr.String()); err == nil {
		conn.Close()
		t.Fatal("closed server still accepting connections")
	}
}

// TestRegistryServeConnConcurrent exchanges challenges over many
// simultaneous connections against one registry (run under -race: the
// registry, provers and shared verifiers must all be concurrency-safe).
func TestRegistryServeConnConcurrent(t *testing.T) {
	reg, verifiers, ws := multiRig(t, "syringe-pump", "dispatch", "crc32")
	names := []string{"syringe-pump", "dispatch", "crc32"}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 24; i++ {
		name := names[i%len(names)]
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			client, server := net.Pipe()
			defer client.Close()
			go func() {
				defer server.Close()
				_ = reg.ServeConn(server)
			}()
			// Several rounds per connection: connections are reusable.
			for r := 0; r < 3; r++ {
				res, err := RequestAttestation(client, verifiers[name], ws[name].Input, Timeouts{}, obs.Scope{})
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, r, err)
					return
				}
				if !res.Accepted {
					errs <- fmt.Errorf("%s round %d rejected: %v", name, r, res)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	reg, verifiers, ws := multiRig(t, "syringe-pump", "dispatch")
	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Verifiers are safe for concurrent use, so goroutines may share
	// the per-program verifier.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		name := "syringe-pump"
		if i%2 == 1 {
			name = "dispatch"
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			res, err := RequestAttestation(conn, verifiers[name], ws[name].Input, Timeouts{}, obs.Scope{})
			if err != nil {
				errs <- err
				return
			}
			if !res.Accepted {
				errs <- fmt.Errorf("%s rejected: %v", name, res)
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
