package fed

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
	"lofat/internal/workloads"
)

// fabric is an in-memory device network, the same idiom the fleet tests
// use: each address maps to a prover-side attest.Registry, and dialing
// spawns a ServeConn goroutine on the server end of a synchronous pipe.
type fabric struct {
	mu   sync.Mutex
	regs map[string]*attest.Registry
}

func newFabric() *fabric { return &fabric{regs: make(map[string]*attest.Registry)} }

func (f *fabric) install(addr string, reg *attest.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.regs[addr] = reg
}

func (f *fabric) dial(addr string) (io.ReadWriteCloser, error) {
	f.mu.Lock()
	reg, ok := f.regs[addr]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: no device at %q", addr)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = reg.ServeConn(server)
	}()
	return client, nil
}

// testNode wraps a verifier node with the connection bookkeeping a kill
// needs: a real crash severs the node's TCP connections, so the test
// kill must close every pipe the coordinator holds open — otherwise the
// coordinator's next exchange would see a polite node-side error
// instead of the transport failure a dead process produces.
type testNode struct {
	node *Node

	mu    sync.Mutex
	conns []net.Conn
	down  bool
}

func newTestNode(t testing.TB, cfg NodeConfig) *testNode {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", cfg.ID, err)
	}
	return &testNode{node: n}
}

// dial is the coordinator-facing DialFunc for this node.
func (tn *testNode) dial() (io.ReadWriteCloser, error) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if tn.down {
		return nil, fmt.Errorf("node %s is down", tn.node.ID())
	}
	client, server := net.Pipe()
	tn.conns = append(tn.conns, server)
	go func() {
		defer server.Close()
		_ = tn.node.ServeConn(server)
	}()
	return client, nil
}

// kill crashes the node: every open control-plane connection is severed
// and the WAL handle dropped without a final sync.
func (tn *testNode) kill() {
	tn.mu.Lock()
	tn.down = true
	conns := tn.conns
	tn.conns = nil
	tn.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	tn.node.Kill()
}

// close shuts the node down cleanly.
func (tn *testNode) close() error {
	tn.mu.Lock()
	tn.down = true
	conns := tn.conns
	tn.conns = nil
	tn.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return tn.node.Close()
}

// spawnAttacked provisions one adversarial prover on the fabric. Each
// attacked device needs its own prover: adversary closures are one-shot
// and not safe for the concurrent rounds a shared endpoint would see.
func spawnAttacked(t testing.TB, f *fabric, w workloads.Workload, attack string, i int) (fleet.DeviceID, []byte, string) {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	atk, ok := workloads.AttackByName(attack)
	if !ok {
		t.Fatalf("unknown attack %q", attack)
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := attest.NewProver(prog, core.Config{}, keys)
	p.Adversary = atk.Build(prog)
	reg := attest.NewRegistry()
	reg.Register(p)
	addr := fmt.Sprintf("mem://%s/%d", attack, i)
	f.install(addr, reg)
	return fleet.DeviceID(fmt.Sprintf("atk-%s-%04d", attack, i)), keys.Public(), addr
}

// spawnHonestEndpoint provisions one honest prover endpoint that any
// number of enrolled device IDs can share — a nil-adversary prover is
// safe under concurrent rounds, so the fleet's honest majority does not
// need a hundred thousand goroutine-backed registries.
func spawnHonestEndpoint(t testing.TB, f *fabric, w workloads.Workload, name string) ([]byte, string) {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := attest.NewProver(prog, core.Config{}, keys)
	reg := attest.NewRegistry()
	reg.Register(p)
	addr := "mem://" + name
	f.install(addr, reg)
	return keys.Public(), addr
}

// federation spins up count ephemeral nodes joined to one coordinator.
func federation(t testing.TB, f *fabric, cfg Config, count int) (*Coordinator, []*testNode) {
	t.Helper()
	coord := NewCoordinator(cfg)
	nodes := make([]*testNode, count)
	for i := range nodes {
		tn := newTestNode(t, NodeConfig{
			ID:    NodeID(fmt.Sprintf("node-%d", i)),
			Fleet: fleet.Config{Dial: f.dial},
		})
		nodes[i] = tn
		if _, err := coord.Join(tn.node.ID(), tn.dial); err != nil {
			t.Fatalf("join %s: %v", tn.node.ID(), err)
		}
	}
	t.Cleanup(func() {
		coord.Close()
		for _, tn := range nodes {
			tn.close()
		}
	})
	return coord, nodes
}

// TestFederatedSweepScale drives the headline scale-out scenario: a
// large simulated fleet (100k+ devices without -race; see the scale_*
// build-tag files) sharded by the ring over three verifier nodes, swept
// once from the coordinator, with a seeded minority of loop-counter
// attackers. The merged verdict must classify every device correctly
// and attribute each quarantine to the owning node.
func TestFederatedSweepScale(t *testing.T) {
	honest, attacked := scaleHonestDevices, scaleAttackedDevices
	if testing.Short() {
		honest, attacked = 2000, 20
	}

	f := newFabric()
	coord, _ := federation(t, f, Config{}, 3)

	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	progID, err := coord.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}

	honestPub, honestAddr := spawnHonestEndpoint(t, f, pump, "honest")
	honestIDs := make([]fleet.DeviceID, honest)
	for i := range honestIDs {
		honestIDs[i] = fleet.DeviceID(fmt.Sprintf("dev-%06d", i))
		if err := coord.Enroll(honestIDs[i], progID, honestPub, honestAddr); err != nil {
			t.Fatal(err)
		}
	}
	attackedIDs := make([]fleet.DeviceID, attacked)
	for i := range attackedIDs {
		id, pub, addr := spawnAttacked(t, f, pump, "loop-counter", i)
		attackedIDs[i] = id
		if err := coord.Enroll(id, progID, pub, addr); err != nil {
			t.Fatal(err)
		}
	}
	total := honest + attacked
	if got := coord.FleetSize(); got != total {
		t.Fatalf("coordinator enrolment = %d, want %d", got, total)
	}

	v, err := coord.Sweep(progID, pump.Input, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("federated sweep: %s", v)

	if v.NodesOK != 3 || v.NodesFailed != 0 || v.NodesSkipped != 0 {
		t.Fatalf("node outcome: ok=%d failed=%d skipped=%d", v.NodesOK, v.NodesFailed, v.NodesSkipped)
	}
	if v.Devices != total {
		t.Fatalf("verdict covers %d devices, want %d", v.Devices, total)
	}
	if v.Accepted != honest || v.Rejected != attacked || v.Errors != 0 || v.Skipped != 0 {
		t.Fatalf("verdict totals: accepted=%d rejected=%d errors=%d skipped=%d, want %d/%d/0/0",
			v.Accepted, v.Rejected, v.Errors, v.Skipped, honest, attacked)
	}
	if v.ByClass[attest.ClassAccepted] != honest || v.ByClass[attest.ClassLoopCounter] != attacked {
		t.Fatalf("classification: %v", v.ByClass)
	}
	if v.Healthy {
		t.Fatal("verdict healthy despite rejected devices")
	}
	if v.Throughput <= 0 {
		t.Fatalf("throughput %f", v.Throughput)
	}

	// Every node must own a non-trivial shard — the ring is doing the
	// scale-out, not one node carrying the fleet.
	quarantined := 0
	for _, n := range v.Nodes {
		if n.Report.Devices == 0 {
			t.Fatalf("node %s swept no devices — ring assigned it nothing", n.Node)
		}
		quarantined += len(v.NewlyQuarantined[n.Node])
	}
	if quarantined != attacked {
		t.Fatalf("%d devices newly quarantined, want %d", quarantined, attacked)
	}

	// Spot-check classification through the coordinator's query path.
	for _, id := range honestIDs[:5] {
		st, node, err := coord.Device(id)
		if err != nil {
			t.Fatalf("device %s: %v", id, err)
		}
		if st.Quarantined || st.LastClass != attest.ClassAccepted {
			t.Fatalf("honest device %s on %s misclassified: %+v", id, node, st)
		}
	}
	for _, id := range attackedIDs[:min(5, attacked)] {
		st, _, err := coord.Device(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Quarantined || st.LastClass != attest.ClassLoopCounter {
			t.Fatalf("attacked device %s not quarantined: %+v", id, st)
		}
	}

	// Second sweep: quarantined attackers sit out, the honest fleet
	// re-attests clean.
	v2, err := coord.Sweep(progID, pump.Input, false)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Accepted != honest || v2.Rejected != 0 || v2.Skipped != attacked {
		t.Fatalf("second sweep: accepted=%d rejected=%d skipped=%d", v2.Accepted, v2.Rejected, v2.Skipped)
	}
}

// TestFederationLeaveRebalance checks the planned-departure path: a
// leaving node's devices move to the survivors with their state, and a
// quarantined device stays quarantined after the move.
func TestFederationLeaveRebalance(t *testing.T) {
	f := newFabric()
	coord, nodes := federation(t, f, Config{}, 3)

	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	progID, err := coord.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	pub, addr := spawnHonestEndpoint(t, f, pump, "honest")
	const devices = 60
	for i := 0; i < devices; i++ {
		if err := coord.Enroll(fleet.DeviceID(fmt.Sprintf("dev-%03d", i)), progID, pub, addr); err != nil {
			t.Fatal(err)
		}
	}
	atkID, atkPub, atkAddr := spawnAttacked(t, f, pump, "loop-counter", 0)
	if err := coord.Enroll(atkID, progID, atkPub, atkAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sweep(progID, pump.Input, false); err != nil {
		t.Fatal(err)
	}
	st, owner, err := coord.Device(atkID)
	if err != nil || !st.Quarantined {
		t.Fatalf("attacked device not quarantined before leave: %+v (%v)", st, err)
	}

	// Leave whichever node owns the quarantined device so its record
	// must actually move.
	var leaving *testNode
	for _, tn := range nodes {
		if tn.node.ID() == owner {
			leaving = tn
		}
	}
	ownedBefore := leaving.node.Service().FleetSize()
	rep, err := coord.Leave(owner)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("rebalance errors: %v", rep.Errors)
	}
	if rep.Moved != ownedBefore || rep.Transferred != ownedBefore {
		t.Fatalf("moved %d (transferred %d) of the %d devices the leaving node owned",
			rep.Moved, rep.Transferred, ownedBefore)
	}

	// The quarantine must have moved with the device, and a sweep over
	// the shrunken federation still covers the whole fleet.
	st, newOwner, err := coord.Device(atkID)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner == owner || !st.Quarantined || st.LastClass != attest.ClassLoopCounter {
		t.Fatalf("quarantine lost in transfer: owner %s → %s, state %+v", owner, newOwner, st)
	}
	v, err := coord.Sweep(progID, pump.Input, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.NodesOK != 2 || v.Devices != devices+1 || v.Accepted != devices || v.Skipped != 1 {
		t.Fatalf("post-leave sweep: %s", v)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReleaseRuleAgrees pins the one release rule across its three
// holders: the live registry (fleet.Registry.Release), the
// node's persisted picture (Node.Release) and WAL replay
// (State.Apply(recQuarantine)) must describe a released device
// identically — quarantine lifted, both streaks cleared, breaker closed.
func TestReleaseRuleAgrees(t *testing.T) {
	dir := t.TempDir()
	n, err := NewNode(NodeConfig{ID: "node-0", Dir: dir, Fleet: fleet.Config{Dial: newFabric().dial}})
	if err != nil {
		t.Fatal(err)
	}
	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := n.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	const id = fleet.DeviceID("pump-0")
	if err := n.Enroll(fleet.DeviceState{
		ID: id, Addr: "mem://pump-0", Program: pid, Pub: make([]byte, 32),
		Quarantined: true, ConsecutiveRejects: 2, Rounds: 9, Rejected: 2, TransportErrors: 3,
		Breaker: fleet.BreakerTripped, ConsecutiveTransportFails: 3, BreakerGen: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if found, err := n.Release(id); err != nil || !found {
		t.Fatalf("release: found=%v err=%v", found, err)
	}

	st, ok := n.Service().Device(id)
	if !ok {
		t.Fatal("device gone after release")
	}
	live := RecordFromState(st)
	if live.Quarantined || live.ConsecutiveRejects != 0 || live.TransportFails != 0 || live.Breaker != fleet.BreakerHealthy {
		t.Fatalf("registry did not release the device: %+v", live)
	}
	if got := n.MaterializedState().Devices[id]; got != live {
		t.Errorf("node's persisted picture\n got %+v\nwant %+v", got, live)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	store, replayed, err := OpenStore(dir, "node-0")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := replayed.Devices[id]; got != live {
		t.Errorf("WAL replay\n got %+v\nwant %+v", got, live)
	}
}
