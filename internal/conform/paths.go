package conform

import (
	"fmt"
	"io"
	"net"
	"time"

	"lofat/internal/attest"
	"lofat/internal/fleet"
	"lofat/internal/fleet/faultconn"
)

func verdictFrom(path string, res attest.Result) Verdict {
	return Verdict{
		Path:     path,
		Class:    res.Class.String(),
		Accepted: res.Accepted,
		Findings: res.Findings,
	}
}

func errorVerdict(path string, err error) Verdict {
	return Verdict{Path: path, Class: "path-error", Findings: []string{err.Error()}}
}

// runDirect presents the mutant report to the in-process verifier —
// the classic Figure 2 exchange without a transport.
func runDirect(sub *subject, mut *Mutation) Verdict {
	ch, err := sub.av.NewChallenge(nil)
	if err != nil {
		return errorVerdict(string(PathDirect), err)
	}
	rep := newMutantDevice(sub, mut).report(ch.Nonce)
	return verdictFrom(string(PathDirect), sub.av.Verify(ch, rep))
}

// runStream feeds the mutant segment stream through an incremental
// session, stopping at the first terminal verdict exactly as the
// transport layer would.
func runStream(sub *subject, mut *Mutation) Verdict {
	s, open, err := sub.sv.Open(nil)
	if err != nil {
		return errorVerdict(string(PathStream), err)
	}
	ms := newMutantDevice(sub, mut).streamSession(open.Nonce, int(open.SegmentEvents))
	for sr := ms.nextReport(); sr != nil; sr = ms.nextReport() {
		if res := s.Consume(sr); res != nil {
			return verdictFrom(string(PathStream), res.Result)
		}
	}
	return verdictFrom(string(PathStream), s.Close(ms.closeReport()).Result)
}

// runFleet verifies every mutant of the seed through an internal/fleet
// service over in-memory pipes: one device per mutation, one direct
// sweep, then — after releasing the sweep's quarantines so every
// device is challenged again — one streamed sweep. Each sweep
// contributes a per-mutation verdict read back from the registry.
func runFleet(sub *subject, muts []*Mutation) (map[string][]Verdict, error) {
	devices := make(map[string]*mutantDevice, len(muts))
	addrOf := func(m *Mutation) string { return "mem://" + m.Name }
	for _, mut := range muts {
		devices[addrOf(mut)] = newMutantDevice(sub, mut)
	}
	dial := func(addr string) (io.ReadWriteCloser, error) {
		d, ok := devices[addr]
		if !ok {
			return nil, fmt.Errorf("conform: no mutant device at %q", addr)
		}
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			_ = d.serveConn(server)
		}()
		if sub.cfg.FleetLatency > 0 {
			return faultconn.New(client, faultconn.Plan{
				Latency: time.Duration(sub.cfg.FleetLatency) * time.Microsecond,
			}), nil
		}
		return client, nil
	}

	svc := fleet.NewService(fleet.Config{
		Workers:             2,
		Dial:                dial,
		BreakerThreshold:    -1, // protocol-class mutants must be re-challenged, not tripped
		StreamSegmentEvents: sub.cfg.SegmentEvents,
		MaxInstructions:     sub.cfg.MaxInstructions,
	})
	defer svc.Close()

	progID, err := svc.RegisterProgram(sub.prog, sub.dev, [][]uint32{{}})
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	for _, mut := range muts {
		if err := svc.Enroll(fleet.DeviceID(mut.Name), progID, sub.keys.Public(), addrOf(mut)); err != nil {
			return nil, fmt.Errorf("enroll %s: %w", mut.Name, err)
		}
	}

	out := make(map[string][]Verdict, len(muts))
	collect := func(path string, wantRounds uint64) error {
		for _, mut := range muts {
			st, ok := svc.Device(fleet.DeviceID(mut.Name))
			if !ok {
				return fmt.Errorf("device %s vanished", mut.Name)
			}
			if st.Rounds != wantRounds {
				out[mut.Name] = append(out[mut.Name], errorVerdict(path, fmt.Errorf(
					"device %s completed %d rounds, want %d (last error: %s)",
					mut.Name, st.Rounds, wantRounds, st.LastError)))
				continue
			}
			out[mut.Name] = append(out[mut.Name], Verdict{
				Path:     path,
				Class:    st.LastClass.String(),
				Accepted: st.LastClass == attest.ClassAccepted,
				Findings: st.LastFindings,
			})
		}
		return nil
	}

	if _, err := svc.SweepProgram(progID, nil); err != nil {
		return nil, fmt.Errorf("direct sweep: %w", err)
	}
	if err := collect("fleet-direct", 1); err != nil {
		return nil, err
	}
	// The direct sweep quarantines authenticated rejects; release them
	// so the streamed sweep challenges every device again.
	for _, id := range svc.Quarantined() {
		svc.Release(id)
	}
	if _, err := svc.RunSweep(fleet.SweepRequest{Program: progID, Streamed: true}); err != nil {
		return nil, fmt.Errorf("streamed sweep: %w", err)
	}
	if err := collect("fleet-stream", 2); err != nil {
		return nil, err
	}
	return out, nil
}
