// Command lofat-attest demonstrates the Figure 2 challenge-response
// protocol over TCP: in-process demo, or real two-process prover/verifier
// with a shared provisioning seed standing in for device enrolment.
//
// Usage:
//
//	lofat-attest -demo                           # both ends in-process
//	lofat-attest -demo -attack loop-counter     # inject an attack
//
//	# two processes (shared -seed models enrolment):
//	lofat-attest -serve 127.0.0.1:9000 -seed 42
//	lofat-attest -verify 127.0.0.1:9000 -seed 42 -w syringe-pump
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"lofat/internal/attest"
	"lofat/internal/hashengine"
	"lofat/internal/obs"
	"lofat/internal/sig"
	"lofat/internal/workloads"
)

func main() {
	demo := flag.Bool("demo", false, "run prover and verifier in-process over TCP")
	serveAddr := flag.String("serve", "", "serve attestations for all workloads on this address")
	verifyAddr := flag.String("verify", "", "request an attestation from a server at this address")
	workload := flag.String("w", "syringe-pump", "workload to attest")
	attack := flag.String("attack", "", "inject an attack: auth-bypass, loop-counter, code-pointer")
	rounds := flag.Int("rounds", 1, "attestation rounds")
	seed := flag.Int64("seed", 0, "provisioning seed shared between -serve and -verify")
	flag.Parse()

	var err error
	switch {
	case *serveAddr != "":
		err = runServer(*serveAddr, *seed, *attack)
	case *verifyAddr != "":
		err = runClient(*verifyAddr, *seed, *workload, *rounds)
	default:
		if !*demo {
			// Default to the demo so `lofat-attest` alone does
			// something useful.
			*demo = true
		}
		err = runDemo(*workload, *attack, *rounds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lofat-attest: %v\n", err)
		os.Exit(1)
	}
}

// drbg expands a seed into a deterministic byte stream (SHAKE-style
// counter construction over our SHA-3), modelling factory provisioning
// where prover and verifier share device credentials.
type drbg struct {
	seed [8]byte
	ctr  uint64
	buf  []byte
}

func newDRBG(seed int64) *drbg {
	d := &drbg{}
	for i := 0; i < 8; i++ {
		d.seed[i] = byte(seed >> (8 * i))
	}
	return d
}

func (d *drbg) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			block := make([]byte, 16)
			copy(block, d.seed[:])
			for i := 0; i < 8; i++ {
				block[8+i] = byte(d.ctr >> (8 * i))
			}
			d.ctr++
			sum := hashengine.Sum512(block)
			d.buf = sum[:]
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}

func provision(seed int64) io.Reader {
	if seed == 0 {
		return rand.Reader
	}
	return newDRBG(seed)
}

// attackByName resolves the -attack flag: the empty name arms nothing,
// an unknown one is an error naming the valid attacks.
func attackByName(name string) (*workloads.Attack, error) {
	if name == "" {
		return nil, nil
	}
	if atk, ok := workloads.AttackByName(name); ok {
		return &atk, nil
	}
	var names []string
	for _, a := range workloads.Attacks() {
		names = append(names, a.Name)
	}
	return nil, fmt.Errorf("unknown attack %q (valid: %s)", name, strings.Join(names, ", "))
}

func runServer(addr string, seed int64, attackName string) error {
	atk, err := attackByName(attackName)
	if err != nil {
		return err
	}
	keys, err := sig.GenerateKeyStore(provision(seed))
	if err != nil {
		return err
	}
	reg := attest.NewRegistry()
	armed := atk == nil
	for _, w := range workloads.All2() {
		prog, err := w.Assemble()
		if err != nil {
			return err
		}
		devCfg, err := w.DeviceConfig(prog)
		if err != nil {
			return err
		}
		p := attest.NewProver(prog, devCfg, keys)
		if atk != nil && atk.Workload.Name == w.Name {
			p.Adversary = atk.Build(prog)
			fmt.Printf("attack %q armed on %s\n", attackName, w.Name)
			armed = true
		}
		reg.Register(p)
	}
	if !armed {
		return fmt.Errorf("attack %q targets %s, which -serve does not host (use -demo)", attackName, atk.Workload.Name)
	}
	srv := attest.NewServer(reg)
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("attestation server on %s, %d programs\n", bound, reg.Len())
	select {} // serve forever
}

func runClient(addr string, seed int64, workload string, rounds int) error {
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	prog, err := w.Assemble()
	if err != nil {
		return err
	}
	keys, err := sig.GenerateKeyStore(provision(seed)) // same seed => same public key
	if err != nil {
		return err
	}
	devCfg, err := w.DeviceConfig(prog)
	if err != nil {
		return err
	}
	v, err := attest.NewVerifier(prog, devCfg, keys.Public(), rand.Reader)
	if err != nil {
		return err
	}
	return attestRounds(addr, v, w.Input, rounds, nil)
}

// attestRounds drives rounds exchanges over one connection to addr and
// prints each verdict; with an attack armed, a round the verifier does
// not classify as the attack expects is an error.
func attestRounds(addr string, v *attest.Verifier, input []uint32, rounds int, atk *workloads.Attack) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	for i := 0; i < rounds; i++ {
		res, err := attest.RequestAttestation(conn, v, input, attest.Timeouts{}, obs.Scope{})
		if err != nil {
			return err
		}
		fmt.Printf("round %d: %v\n", i+1, res)
		for _, f := range res.Findings {
			fmt.Printf("  finding: %s\n", f)
		}
		if atk != nil && res.Class != atk.Expect {
			return fmt.Errorf("expected classification %v, got %v", atk.Expect, res.Class)
		}
	}
	return nil
}

func runDemo(workload, attackName string, rounds int) error {
	w, ok := workloads.ByName(workload)
	atk, err := attackByName(attackName)
	if err != nil {
		return err
	}
	if atk != nil {
		w, ok = atk.Workload, true
		fmt.Printf("injecting attack %q (class %d): %s\n", atk.Name, atk.Class, atk.Description)
	}
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	prog, err := w.Assemble()
	if err != nil {
		return err
	}

	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		return err
	}
	devCfg, err := w.DeviceConfig(prog)
	if err != nil {
		return err
	}
	prover := attest.NewProver(prog, devCfg, keys)
	if atk != nil {
		prover.Adversary = atk.Build(prog)
	}
	verifier, err := attest.NewVerifier(prog, devCfg, keys.Public(), rand.Reader)
	if err != nil {
		return err
	}

	reg := attest.NewRegistry()
	reg.Register(prover)
	srv := attest.NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("prover listening on %s, program %v\n", addr, prover.ProgramID())

	return attestRounds(addr.String(), verifier, w.Input, rounds, atk)
}
