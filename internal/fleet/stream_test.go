package fleet_test

import (
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/workloads"
)

// streamFabric is the in-memory network for streaming-capable devices:
// each address maps to a stream.Registry (which serves both the
// classic and the segmented protocol on one connection).
type streamFabric struct {
	mu   sync.Mutex
	regs map[string]*stream.Registry
}

func newStreamFabric() *streamFabric {
	return &streamFabric{regs: make(map[string]*stream.Registry)}
}

func (f *streamFabric) dial(addr string) (io.ReadWriteCloser, error) {
	f.mu.Lock()
	reg, ok := f.regs[addr]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("streamFabric: no device at %q", addr)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = reg.ServeConn(server)
	}()
	return client, nil
}

// spawnStreamDevice provisions a streaming-capable prover.
func (f *streamFabric) spawn(t testing.TB, w workloads.Workload, i int, adv attest.Adversary) simDevice {
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
	ap.Adversary = adv
	reg := stream.NewRegistry()
	reg.Register(stream.NewProver(ap))
	d := simDevice{
		id:   fleet.DeviceID(fmt.Sprintf("s-%s-%03d", w.Name, i)),
		pub:  keys.Public(),
		addr: fmt.Sprintf("mem-stream://%s/%d", w.Name, i),
	}
	f.mu.Lock()
	f.regs[d.addr] = reg
	f.mu.Unlock()
	return d
}

// TestFleetStreamedSweep drives a streamed sweep over honest devices
// plus attacked ones, checking that attacked devices are rejected at a
// divergent segment (early abort, mid-run), quarantined, and that the
// per-segment fleet metrics are populated.
func TestFleetStreamedSweep(t *testing.T) {
	f := newStreamFabric()
	svc := fleet.NewService(fleet.Config{
		Dial:                f.dial,
		StreamSegmentEvents: 8,
	})
	defer svc.Close()

	pump := workloads.SyringePump()
	pumpProg, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pumpID, err := svc.RegisterProgram(pumpProg, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}

	const honest = 20
	for i := 0; i < honest; i++ {
		d := f.spawn(t, pump, i, nil)
		if err := svc.Enroll(d.id, pumpID, d.pub, d.addr); err != nil {
			t.Fatal(err)
		}
	}

	atk, ok := workloads.AttackByName("loop-counter")
	if !ok {
		t.Fatal("loop-counter attack missing")
	}
	// Two attacked devices: one inspected via a direct streamed round,
	// one left for the sweep (the adversaries are one-shot closures, so
	// each device is attacked exactly once).
	probe := f.spawn(t, pump, honest, atk.Build(pumpProg))
	if err := svc.Enroll(probe.id, pumpID, probe.pub, probe.addr); err != nil {
		t.Fatal(err)
	}
	swept := f.spawn(t, pump, honest+1, atk.Build(pumpProg))
	if err := svc.Enroll(swept.id, pumpID, swept.pub, swept.addr); err != nil {
		t.Fatal(err)
	}

	// Direct streamed round against the probe: the streaming outcome
	// must localize the divergence.
	out, err := svc.Submit(fleet.Round{Device: probe.id, Input: pump.Input, Streamed: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result.Accepted || out.Stream == nil {
		t.Fatalf("probe outcome: %+v", out)
	}
	if !out.Stream.EarlyAbort {
		t.Error("probe round not early-aborted")
	}
	if out.Result.Class != attest.ClassLoopCounter {
		t.Errorf("probe class = %v, want %v", out.Result.Class, attest.ClassLoopCounter)
	}
	if d := out.Stream.Divergence; d == nil || d.Got == nil {
		t.Errorf("probe divergence not localized: %+v", out.Stream)
	}
	if !out.Quarantined {
		t.Error("probe device not quarantined after streamed rejection")
	}

	// Streamed sweep over the rest of the fleet.
	rep, err := svc.RunSweep(fleet.SweepRequest{Program: pumpID, Input: pump.Input, Streamed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Streamed {
		t.Error("sweep report not marked streamed")
	}
	// The probe is quarantined by now and skipped.
	if rep.Accepted != honest || rep.Rejected != 1 || rep.Skipped != 1 || rep.Errors != 0 {
		t.Fatalf("streamed sweep: %+v", rep)
	}
	if rep.EarlyAborts != 1 {
		t.Errorf("sweep early aborts = %d, want 1", rep.EarlyAborts)
	}
	if rep.SegmentsVerified == 0 {
		t.Error("sweep verified no segments")
	}
	if len(rep.NewlyQuarantined) != 1 || rep.NewlyQuarantined[0] != swept.id {
		t.Errorf("newly quarantined = %v, want [%s]", rep.NewlyQuarantined, swept.id)
	}

	st, ok := svc.Device(swept.id)
	if !ok || !st.Quarantined || st.LastClass != attest.ClassLoopCounter {
		t.Errorf("swept attacked device state: %+v", st)
	}

	snap := svc.Metrics()
	if snap.StreamRounds != honest+2 {
		t.Errorf("stream rounds = %d, want %d", snap.StreamRounds, honest+2)
	}
	if snap.EarlyAborts != 2 {
		t.Errorf("early aborts = %d, want 2", snap.EarlyAborts)
	}
	if snap.SegmentsVerified == 0 {
		t.Error("no segments verified in metrics")
	}
	// The shared cache amortized the streamed golden run: at most one
	// miss per cache kind, everything else hits.
	if snap.CacheMisses > 2 || snap.CacheHits == 0 {
		t.Errorf("cache hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
}
