package fed

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lofat/internal/core"
	"lofat/internal/fed/faultfs"
	"lofat/internal/fleet"
	"lofat/internal/workloads"
)

// walRec builds a distinct upsert record for fault tests; all indices
// below 10 encode to the same byte length, which the byte-threshold
// arithmetic in the short-write test relies on.
func walRec(i int) WALRecord {
	return WALRecord{Kind: recUpsert, Device: DeviceRecord{
		ID:     fleet.DeviceID(fmt.Sprintf("dev-%03d", i)),
		Addr:   fmt.Sprintf("mem://dev/%d", i),
		Rounds: uint64(i + 1),
	}}
}

func mustOpen(t *testing.T, fsys faultfs.FS, dir string) (*Store, *State) {
	t.Helper()
	st, state, err := OpenStoreFS(fsys, dir, "n1")
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st, state
}

// TestStoreOpenRemovesStaleSnapshotTemp: a crash between Compact's
// CreateTemp and its rename leaves a snap-*.tmp in the directory; Open
// must sweep it out and leave the store fully usable.
func TestStoreOpenRemovesStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "snap-12345678.tmp")
	if err := os.WriteFile(stale, []byte("never-published garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, state := mustOpen(t, nil, dir)
	if len(state.Devices) != 0 {
		t.Fatalf("fresh store recovered %d devices", len(state.Devices))
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale snapshot temp survived open: %v", err)
	}
	if err := st.Append(walRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, state2, err := OpenStore(dir, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(state2.Devices) != 1 {
		t.Fatalf("recovered %d devices, want 1", len(state2.Devices))
	}
}

// TestStoreCompactDirSyncFailure: the snapshot rename is only durable
// once the directory itself is fsynced. Compact must issue that sync
// (the regression this test pins), report its failure loudly, and leave
// every record loadable afterwards.
func TestStoreCompactDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS{}, faultfs.Plan{DirSyncErrOn: 1})
	st, state := mustOpen(t, inj, dir)
	for i := 0; i < 3; i++ {
		rec := walRec(i)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		state.Apply(rec)
	}
	err := st.Compact(state)
	if err == nil || !strings.Contains(err.Error(), "sync dir") {
		t.Fatalf("compact with failing directory sync: %v", err)
	}
	if got := inj.Stats().DirSyncs; got != 1 {
		t.Fatalf("compact issued %d directory syncs, want 1 after the snapshot rename", got)
	}
	st.Abandon()

	_, state2, err := OpenStore(dir, "n1")
	if err != nil {
		t.Fatalf("reopen after failed compact: %v", err)
	}
	if len(state2.Devices) != 3 {
		t.Fatalf("recovered %d devices after failed compact, want 3", len(state2.Devices))
	}
}

// TestStoreCompactRenameFailure: a rename that never lands must leave
// the previous generation (snapshot + WAL) authoritative and no temp
// litter behind.
func TestStoreCompactRenameFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS{}, faultfs.Plan{RenameErrOn: 1})
	st, state := mustOpen(t, inj, dir)
	for i := 0; i < 3; i++ {
		rec := walRec(i)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		state.Apply(rec)
	}
	if err := st.Compact(state); err == nil {
		t.Fatal("compact succeeded despite failed rename")
	}
	st.Abandon()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed compact left %s behind", e.Name())
		}
	}
	_, state2, err := OpenStore(dir, "n1")
	if err != nil {
		t.Fatalf("reopen after failed compact: %v", err)
	}
	if len(state2.Devices) != 3 {
		t.Fatalf("recovered %d devices after failed compact, want 3", len(state2.Devices))
	}
}

// TestStoreAppendClawsBackTornWrite: a write torn mid-record must not
// leave its partial bytes in the file — a later successful append would
// graft a valid record onto the tear, and replay (which stops at the
// tear) would silently drop it.
func TestStoreAppendClawsBackTornWrite(t *testing.T) {
	recSize := recHeaderLen + len(recordBody(walRec(0)))
	dir := t.TempDir()
	// Header and record 0 land whole; the single write crossing the
	// threshold — record 1 — is cut four bytes in.
	inj := faultfs.New(faultfs.OS{}, faultfs.Plan{ShortWriteAt: walHeaderLen + recSize + 4})
	st, _ := mustOpen(t, inj, dir)
	if err := st.Append(walRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(walRec(1)); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := st.Append(walRec(2)); err != nil {
		t.Fatalf("append after claw-back: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, state, err := OpenStore(dir, "n1")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, ok := state.Devices["dev-000"]; !ok {
		t.Fatal("record 0 lost")
	}
	if _, ok := state.Devices["dev-001"]; ok {
		t.Fatal("torn record 1 resurrected")
	}
	if _, ok := state.Devices["dev-002"]; !ok {
		t.Fatal("record 2 after the tear lost — partial bytes were not clawed back")
	}
	if len(state.Devices) != 2 {
		t.Fatalf("recovered %d devices, want 2", len(state.Devices))
	}
}

// TestStoreTornWriteSweepNeverCorrupt is the disk-fault acceptance
// sweep: for every byte position in the store's write stream, the disk
// fills at exactly that point (the crossing write delivers only its
// prefix — real ENOSPC), the node "crashes", and the store reopened on
// the healed filesystem must load the successfully-appended prefix —
// never ErrCorrupt, never a resurrected or lost record. This includes
// cuts inside the WAL header itself.
func TestStoreTornWriteSweepNeverCorrupt(t *testing.T) {
	const N = 6
	clean := faultfs.New(faultfs.OS{}, faultfs.Plan{})
	cleanDir := t.TempDir()
	st, _ := mustOpen(t, clean, cleanDir)
	for i := 0; i < N; i++ {
		if err := st.Append(walRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	total := clean.Stats().BytesWritten
	if total <= walHeaderLen {
		t.Fatalf("measured write stream only %d bytes", total)
	}

	for cut := 1; cut <= total; cut++ {
		dir := filepath.Join(t.TempDir(), "store")
		inj := faultfs.New(faultfs.OS{}, faultfs.Plan{WriteErrAfter: cut})
		appended := 0
		if st, _, err := OpenStoreFS(inj, dir, "n1"); err == nil {
			for i := 0; i < N; i++ {
				if err := st.Append(walRec(i)); err != nil {
					break
				}
				appended++
			}
			st.Abandon()
		}

		st2, state, err := OpenStore(dir, "n1")
		if err != nil {
			t.Fatalf("cut %d: reopen after torn write: %v", cut, err)
		}
		if len(state.Devices) != appended {
			t.Fatalf("cut %d: recovered %d devices, want the %d appended", cut, len(state.Devices), appended)
		}
		for i := 0; i < appended; i++ {
			if _, ok := state.Devices[fleet.DeviceID(fmt.Sprintf("dev-%03d", i))]; !ok {
				t.Fatalf("cut %d: appended record %d lost", cut, i)
			}
		}
		// The healed store must accept appends at the right offset.
		if err := st2.Append(walRec(9)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestLameDuckNode drives the degraded-storage lifecycle end to end
// through the coordinator: a member node's disk stops accepting fsyncs,
// the node flips to lame-duck after the configured number of failed
// persistence passes, the fleet verdict reports it, enrolments onto it
// are refused — and it keeps serving sweeps, because losing durability
// must not lose attestation coverage.
func TestLameDuckNode(t *testing.T) {
	f := newFabric()
	coord := NewCoordinator(Config{})
	inj := faultfs.New(faultfs.OS{}, faultfs.Plan{SyncErrOn: 1})
	var nodes []*testNode
	for i := 0; i < 3; i++ {
		cfg := NodeConfig{
			ID:            NodeID(fmt.Sprintf("node-%d", i)),
			Fleet:         fleet.Config{Dial: f.dial},
			SnapshotEvery: 1 << 20, // keep compaction (and its syncs) out of the count
		}
		if i == 0 {
			cfg.Dir = t.TempDir()
			cfg.FS = inj
		}
		tn := newTestNode(t, cfg)
		nodes = append(nodes, tn)
		if _, err := coord.Join(tn.node.ID(), tn.dial); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		coord.Close()
		for _, tn := range nodes {
			tn.close()
		}
	})

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
	const devices = 24
	for i := 0; i < devices; i++ {
		if err := coord.Enroll(fleet.DeviceID(fmt.Sprintf("dev-%03d", i)), progID, pub, addr); err != nil {
			t.Fatal(err)
		}
	}

	// Each sweep's persistence pass ends in a failing fsync; at
	// DefaultLameDuckAfter consecutive failures the node goes lame.
	var lameSweep *FleetVerdict
	for s := 0; s < DefaultLameDuckAfter+1 && lameSweep == nil; s++ {
		v, err := coord.Sweep(progID, pump.Input, false)
		if err != nil {
			t.Fatal(err)
		}
		if v.NodesOK != 3 || v.Devices != coord.FleetSize() {
			t.Fatalf("sweep %d lost coverage: %s", s, v)
		}
		if v.NodesLame > 0 {
			lameSweep = v
		}
	}
	if lameSweep == nil {
		t.Fatalf("node-0 never reported lame duck after %d failing sweeps", DefaultLameDuckAfter+1)
	}
	if lameSweep.NodesLame != 1 {
		t.Fatalf("%d lame nodes reported, want 1", lameSweep.NodesLame)
	}
	for _, n := range lameSweep.Nodes {
		if n.Node == "node-0" {
			if !n.LameDuck || n.StoreErr == "" {
				t.Fatalf("node-0 report: lame=%v storeErr=%q", n.LameDuck, n.StoreErr)
			}
		} else if n.LameDuck {
			t.Fatalf("healthy node %s reported lame", n.Node)
		}
	}
	if lame, reason := nodes[0].node.Health(); !lame || reason == "" {
		t.Fatalf("node-0 health: lame=%v reason=%q", lame, reason)
	}

	// A lame node refuses new enrolments — with single-owner placement
	// the coordinator surfaces the refusal, steering the operator (and,
	// with R>1, the all-or-nothing enroll) away from it. Probe fresh IDs
	// until one lands on node-0.
	refused := false
	for i := 0; i < 40 && !refused; i++ {
		err := coord.Enroll(fleet.DeviceID(fmt.Sprintf("probe-%03d", i)), progID, pub, addr)
		if err != nil {
			if !strings.Contains(err.Error(), "lame duck") {
				t.Fatalf("enroll failed for the wrong reason: %v", err)
			}
			refused = true
		}
	}
	if !refused {
		t.Fatal("no enrolment ever landed on (and was refused by) the lame node")
	}

	// Read-only degraded service: the lame node still sweeps its shard.
	v, err := coord.Sweep(progID, pump.Input, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.NodesOK != 3 || v.NodesLame != 1 || v.Devices != coord.FleetSize() || v.Rejected != 0 {
		t.Fatalf("lame-duck federation sweep: %s", v)
	}
}

// TestStoreTornBatchSweep is the torn-write sweep for batched appends:
// two three-record batches, the disk filling at every byte position of
// the write stream. A batch whose Append failed is clawed back whole,
// so the reopened store holds exactly the acknowledged batches — never
// part of a batch, never ErrCorrupt.
func TestStoreTornBatchSweep(t *testing.T) {
	batches := [][]WALRecord{{walRec(0), walRec(1), walRec(2)}, {walRec(3), walRec(4), walRec(5)}}
	total := walHeaderLen
	for _, b := range batches {
		for _, rec := range b {
			total += recHeaderLen + len(recordBody(rec))
		}
	}
	for cut := 1; cut <= total; cut++ {
		dir := filepath.Join(t.TempDir(), "store")
		inj := faultfs.New(faultfs.OS{}, faultfs.Plan{WriteErrAfter: cut})
		acked := 0
		if st, _, err := OpenStoreFS(inj, dir, "n1"); err == nil {
			for _, b := range batches {
				if err := st.Append(b...); err != nil {
					break
				}
				acked += len(b)
			}
			if st.Records() != acked {
				t.Fatalf("cut %d: store counts %d records, %d were acknowledged", cut, st.Records(), acked)
			}
			st.Abandon()
		}
		st2, state, err := OpenStore(dir, "n1")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(state.Devices) != acked {
			t.Fatalf("cut %d: recovered %d devices, want the %d acknowledged", cut, len(state.Devices), acked)
		}
		for i := 0; i < acked; i++ {
			if _, ok := state.Devices[fleet.DeviceID(fmt.Sprintf("dev-%03d", i))]; !ok {
				t.Fatalf("cut %d: acknowledged record %d lost", cut, i)
			}
		}
		st2.Close()
	}
}

// TestSweepWritesWALOncePerBatch pins the write discipline of a
// replicated, persistent federation: per node and sweep, the sweep's
// own diff is one WAL write and one fsync, and the anti-entropy records
// pushed onto it are one more of each — however many devices moved.
func TestSweepWritesWALOncePerBatch(t *testing.T) {
	f := newFabric()
	coord := NewCoordinator(Config{Replicas: 2})
	defer coord.Close()
	injs := make([]*faultfs.Injector, 3)
	for i := range injs {
		injs[i] = faultfs.New(faultfs.OS{}, faultfs.Plan{})
		tn := newTestNode(t, NodeConfig{
			ID: NodeID(fmt.Sprintf("node-%d", i)), Dir: t.TempDir(), FS: injs[i],
			Fleet: fleet.Config{Dial: f.dial}, SnapshotEvery: 1 << 20,
		})
		defer tn.close()
		if _, err := coord.Join(tn.node.ID(), tn.dial); err != nil {
			t.Fatal(err)
		}
	}
	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := coord.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	pub, addr := spawnHonestEndpoint(t, f, pump, "honest")
	const devices = 24
	for i := 0; i < devices; i++ {
		if err := coord.Enroll(fleet.DeviceID(fmt.Sprintf("dev-%03d", i)), pid, pub, addr); err != nil {
			t.Fatal(err)
		}
	}
	for sweep := 1; sweep <= 2; sweep++ {
		before := make([]faultfs.Stats, len(injs))
		for i, inj := range injs {
			before[i] = inj.Stats()
		}
		v, err := coord.Sweep(pid, pump.Input, false)
		if err != nil || v.Accepted != devices {
			t.Fatalf("sweep %d: %v %v", sweep, v, err)
		}
		for i, inj := range injs {
			after := inj.Stats()
			writes, syncs := after.Writes-before[i].Writes, after.Syncs-before[i].Syncs
			if writes < 1 || writes > 2 || syncs > 2 {
				t.Errorf("sweep %d, node-%d: %d WAL writes and %d fsyncs, want 1-2 of each", sweep, i, writes, syncs)
			}
		}
	}
}

// TestSyncRecordsRepeatedDevice: a device listed twice in one sync
// batch ends on its last record, live and after replay, even when that
// record equals what the node had persisted before the batch.
func TestSyncRecordsRepeatedDevice(t *testing.T) {
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
	v0 := RecordFromState(fleet.DeviceState{ID: "pump-0", Addr: "mem://pump-0", Program: pid, Pub: make([]byte, 32), Rounds: 3})
	if err := n.Enroll(v0.State()); err != nil {
		t.Fatal(err)
	}
	v1 := v0
	v1.Rounds, v1.Quarantined = 4, true
	if err := n.SyncRecords([]DeviceRecord{v1, v0}); err != nil {
		t.Fatal(err)
	}
	if got := n.MaterializedState().Devices[v0.ID]; got != v0 {
		t.Errorf("persisted picture\n got %+v\nwant %+v", got, v0)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	store, replayed, err := OpenStore(dir, "node-0")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := replayed.Devices[v0.ID]; got != v0 {
		t.Errorf("WAL replay\n got %+v\nwant %+v", got, v0)
	}
}
