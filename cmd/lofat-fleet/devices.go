package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/fleet/faultconn"
	"lofat/internal/sig"
	"lofat/internal/workloads"
)

// fleetShape is the simulated fleet both modes sweep. Device roles go
// by index: [0,attacked) armed with the attack, then stalled, then
// dropping, the rest honest.
type fleetShape struct {
	devices, attacked, stalled, dropping int
	attack, workload                     string
}

// resolve looks the names up, bounds the role counts by the fleet size,
// assembles the shared firmware and derives the device configuration
// its provers and its verifier both run under.
func (s *fleetShape) resolve() (workloads.Workload, workloads.Attack, *asm.Program, core.Config, error) {
	var none core.Config
	w, ok := workloads.ByName(s.workload)
	if !ok {
		return w, workloads.Attack{}, nil, none, fmt.Errorf("unknown workload %q", s.workload)
	}
	atk, ok := workloads.AttackByName(s.attack)
	if !ok {
		return w, atk, nil, none, fmt.Errorf("unknown attack %q", s.attack)
	}
	s.attacked = min(s.attacked, s.devices)
	if n := s.attacked + s.stalled + s.dropping; n > s.devices {
		return w, atk, nil, none, fmt.Errorf("attacked+stalled+dropping (%d) exceeds -devices (%d)", n, s.devices)
	}
	prog, err := w.Assemble()
	if err != nil {
		return w, atk, nil, none, err
	}
	devCfg, err := w.DeviceConfig(prog)
	return w, atk, prog, devCfg, err
}

// simDevices is the running fleet: one attest.Server per device on a
// loopback port, and the transport-chaos plans of the degraded ones,
// keyed by enrolled address.
type simDevices struct {
	servers []*attest.Server
	plans   sync.Map // addr string -> faultconn.Plan
}

// dialer is the plain TCP dial wrapped by faultconn: connections to a
// device with a plan are fault-injected, the others pass untouched.
func (d *simDevices) dialer(timeout time.Duration) fleet.DialFunc {
	tcpDial := func(addr string) (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return faultconn.Wrap(tcpDial, func(addr string) (faultconn.Plan, bool) {
		p, ok := d.plans.Load(addr)
		if !ok {
			return faultconn.Plan{}, false
		}
		return p.(faultconn.Plan), true
	})
}

// spawn starts the devices, each provisioned with its own key at
// "manufacture", and hands every one to enroll (a Service's or a
// Coordinator's Enroll). Servers started before an error stay in d for
// close.
func (d *simDevices) spawn(s fleetShape, prog *asm.Program, devCfg core.Config, atk workloads.Attack, idle time.Duration, progID attest.ProgramID,
	enroll func(fleet.DeviceID, attest.ProgramID, ed25519.PublicKey, string) error) error {
	for i := 0; i < s.devices; i++ {
		keys, err := sig.GenerateKeyStore(rand.Reader)
		if err != nil {
			return err
		}
		p := attest.NewProver(prog, devCfg, keys)
		if i < s.attacked {
			p.Adversary = atk.Build(prog)
		}
		reg := attest.NewRegistry()
		reg.Register(p)
		srv := attest.NewServer(reg)
		srv.IdleTimeout = idle
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		d.servers = append(d.servers, srv)
		switch {
		case i >= s.attacked && i < s.attacked+s.stalled:
			// Deliver 3 bytes of the challenge frame, swallow the rest:
			// the prover blocks mid-ReadFull, the verifier's read
			// deadline times the round out.
			d.plans.Store(addr.String(), faultconn.Plan{StallWriteAfter: 3})
		case i >= s.attacked+s.stalled && i < s.attacked+s.stalled+s.dropping:
			d.plans.Store(addr.String(), faultconn.Plan{CloseAfter: 2})
		}
		id := fleet.DeviceID(fmt.Sprintf("dev-%04d", i))
		if err := enroll(id, progID, keys.Public(), addr.String()); err != nil {
			return err
		}
	}
	return nil
}

func (d *simDevices) close() {
	for _, s := range d.servers {
		s.Close()
	}
}

// proverIdleTimeout derives the simulated devices' server-side idle
// deadline from the verifier's per-phase timeouts, so a stalled
// exchange frees the prover goroutine on the same scale the operator
// tuned (twice the slower phase, floor 1s; disabled phases fall back
// to 30s).
func proverIdleTimeout(cfg fleet.Config) time.Duration {
	d := max(cfg.ReadTimeout, cfg.WriteTimeout)
	if d <= 0 {
		return 30 * time.Second
	}
	return max(2*d, time.Second)
}
