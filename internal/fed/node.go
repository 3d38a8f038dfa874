package fed

import (
	"fmt"
	"io"
	"sync"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fed/faultfs"
	"lofat/internal/fleet"
	"lofat/internal/obs"
)

// DefaultSnapshotEvery is the WAL record count that triggers automatic
// compaction into a fresh snapshot generation.
const DefaultSnapshotEvery = 4096

// DefaultLameDuckAfter is how many consecutive failed persistence
// passes a node tolerates before declaring its store dead and entering
// lame-duck service. One flaky fsync should not drain a node; a disk
// that fails twice in a row is not coming back on its own.
const DefaultLameDuckAfter = 2

// NodeConfig parameterises one verifier node.
type NodeConfig struct {
	// ID names the node in the ring and in persisted state.
	ID NodeID
	// Dir is the persistence directory; empty runs the node ephemeral
	// (no snapshot, no WAL — state dies with the process).
	Dir string
	// Fleet configures the node's underlying fleet service.
	Fleet fleet.Config
	// SnapshotEvery compacts the WAL into a new snapshot after this
	// many records (default DefaultSnapshotEvery).
	SnapshotEvery int
	// FS is the filesystem the store runs against; nil selects the real
	// one. Chaos tests pass a faultfs.Injector.
	FS faultfs.FS
	// LameDuckAfter is the consecutive persistence-failure threshold
	// that flips the node into lame-duck service (default
	// DefaultLameDuckAfter).
	LameDuckAfter int
}

// Node is one federation member: a fleet.Service plus its durability
// layer and the frame handler the coordinator talks to.
//
// Warm restart: NewNode loads the newest snapshot and replays the WAL,
// but the recovered device records cannot be enrolled until their
// program's offline analysis exists — so they wait in a pending set,
// and RegisterProgram adopts the ones belonging to the program it just
// registered. A node restarted with the same programs re-registered is
// therefore byte-for-byte back where it was killed: same membership,
// same quarantine flags, same breaker positions, same sweep-generation
// pacing. Cached measurements are not persisted (they are derivable);
// the first post-restart sweep re-warms them.
type Node struct {
	cfg   NodeConfig
	svc   *fleet.Service
	store *Store // nil when ephemeral

	mu sync.Mutex
	// pending holds restored device records awaiting their program's
	// registration, keyed by program then device.
	//lofat:guardedby mu
	pending map[attest.ProgramID]map[fleet.DeviceID]DeviceRecord
	// persisted mirrors what the WAL+snapshot durably describe, so the
	// post-sweep diff appends only records that actually changed.
	//lofat:guardedby mu
	persisted map[fleet.DeviceID]DeviceRecord
	// knownKeys tracks cache keys already WAL-logged. The measurements
	// behind them are not persisted (derivable, large) — sweeps re-warm
	// them lazily; the keys keep the durable picture complete.
	//lofat:guardedby mu
	knownKeys map[string]struct{}
	//lofat:guardedby mu
	persistedGen uint64
	//lofat:guardedby mu
	programs map[attest.ProgramID]registerReq
	//lofat:guardedby mu
	lastFlightSeq uint64
	//lofat:guardedby mu
	killed bool
	// storeFails counts consecutive failed persistence passes; at
	// cfg.LameDuckAfter the node goes lame: read-only degraded service.
	// A lame node still answers sweeps, transfers and syncs (in memory)
	// but refuses new enrolments, stops touching its broken store, and
	// reports itself unhealthy so the coordinator drains it.
	//lofat:guardedby mu
	storeFails int
	//lofat:guardedby mu
	lame bool
	//lofat:guardedby mu
	lameErr string
}

// NewNode builds the node, recovering persisted state when cfg.Dir is
// set. Registry membership restores lazily per program — see the type
// comment.
//
// (construction: the node is not yet published to any other goroutine,
// so its state is owned without taking the lock)
//
//lofat:locked mu
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fed: node needs an ID")
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.LameDuckAfter <= 0 {
		cfg.LameDuckAfter = DefaultLameDuckAfter
	}
	n := &Node{
		cfg:       cfg,
		pending:   make(map[attest.ProgramID]map[fleet.DeviceID]DeviceRecord),
		persisted: make(map[fleet.DeviceID]DeviceRecord),
		knownKeys: make(map[string]struct{}),
		programs:  make(map[attest.ProgramID]registerReq),
	}
	var restored *State
	if cfg.Dir != "" {
		store, state, err := OpenStoreFS(cfg.FS, cfg.Dir, cfg.ID)
		if err != nil {
			return nil, err
		}
		n.store, restored = store, state
	}
	n.svc = fleet.NewService(cfg.Fleet)
	if restored != nil {
		for id, rec := range restored.Devices {
			byProg, ok := n.pending[rec.Program]
			if !ok {
				byProg = make(map[fleet.DeviceID]DeviceRecord)
				n.pending[rec.Program] = byProg
			}
			byProg[id] = rec
			n.persisted[id] = rec
		}
		for k := range restored.CacheKeys {
			n.knownKeys[k] = struct{}{}
		}
		n.persistedGen = restored.SweepGen
		n.svc.SyncSweepGeneration(restored.SweepGen)
	}
	return n, nil
}

// ID names the node.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Service exposes the underlying fleet service (tests and local
// embedding; the coordinator goes through the frame protocol).
func (n *Node) Service() *fleet.Service { return n.svc }

// PendingDevices reports restored devices still awaiting their
// program's registration.
func (n *Node) PendingDevices() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, m := range n.pending {
		c += len(m)
	}
	return c
}

// RegisterProgram registers a firmware image on the node's fleet
// service and adopts any restored devices waiting for it (re-enrolling
// them with their persisted quarantine, breaker and counter state).
// Registration is idempotent — a coordinator re-registering on rejoin
// gets the same program ID back.
func (n *Node) RegisterProgram(prog *asm.Program, devCfg core.Config, inputs [][]uint32) (attest.ProgramID, error) {
	id := attest.ComputeProgramID(prog.Text)
	n.mu.Lock()
	_, known := n.programs[id]
	n.mu.Unlock()
	if !known {
		got, err := n.svc.RegisterProgram(prog, devCfg, inputs)
		if err != nil {
			return attest.ProgramID{}, err
		}
		id = got
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.programs[id] = registerReq{Prog: prog, DevCfg: devCfg, Inputs: inputs}
	for devID, rec := range n.pending[id] {
		if err := n.svc.EnrollState(rec.State()); err != nil {
			return id, fmt.Errorf("fed: node %s: restore device %q: %w", n.cfg.ID, devID, err)
		}
	}
	delete(n.pending, id)
	return id, nil
}

// Enroll adds (or restores) one device and logs it durably. A lame
// node refuses: it cannot durably own anything new, and refusing is
// what steers the coordinator's placement toward healthy replicas.
func (n *Node) Enroll(st fleet.DeviceState) error {
	n.mu.Lock()
	if n.lame {
		msg := n.lameErr
		n.mu.Unlock()
		return fmt.Errorf("fed: node %s: lame duck (read-only): %s", n.cfg.ID, msg)
	}
	n.mu.Unlock()
	if err := n.svc.EnrollState(st); err != nil {
		return err
	}
	rec := RecordFromState(st)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.persisted[st.ID] = rec
	return n.appendLocked(WALRecord{Kind: recUpsert, Device: rec})
}

// Transfer extracts one device for hand-off to another node: the
// device is removed (flight ring drained) and its final state returned;
// the removal is WAL-logged so a restart does not resurrect it.
func (n *Node) Transfer(id fleet.DeviceID) (fleet.DeviceState, bool, error) {
	st, ok := n.svc.Forget(id)
	if !ok {
		return fleet.DeviceState{}, false, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.persisted, id)
	return st, true, n.appendLocked(WALRecord{Kind: recForget, ID: id})
}

// Release lifts a device's quarantine (operator override), logging the
// change.
func (n *Node) Release(id fleet.DeviceID) (bool, error) {
	if !n.svc.Release(id) {
		return false, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if rec, ok := n.persisted[id]; ok {
		rec.setQuarantined(false)
		n.persisted[id] = rec
	}
	return true, n.appendLocked(WALRecord{Kind: recQuarantine, ID: id, On: false})
}

// sweep runs one placement-directed program sweep over exactly devices
// on the node's fleet and persists the diff: every device whose
// persistable record changed, every cache key newly warmed, and the
// advanced sweep generation. The returned changed slice (sorted by ID)
// lists every device record the round moved — the coordinator's
// anti-entropy feed. A persistence failure does not fail the sweep: the
// verdict was already computed, so the node records the store failure
// (eventually going lame) and serves the report regardless — losing
// durability must not lose coverage.
func (n *Node) sweep(req sweepReq) (fleet.SweepReport, []DeviceRecord, error) {
	devices := req.Devices
	if devices == nil {
		// An empty list decodes as nil, and nil means every member to
		// the fleet: a node acting for nothing must challenge nothing.
		devices = []fleet.DeviceID{}
	}
	rep, err := n.svc.RunSweep(fleet.SweepRequest{Program: req.Program, Input: req.Input, Streamed: req.Streamed, Devices: devices})
	if err != nil {
		return rep, nil, err
	}
	return rep, n.persistDiff(), nil
}

// persistDiff computes which device records drifted from the last
// persisted picture and logs them, with newly warmed cache keys and the
// advanced sweep generation, as one WAL batch: one write, one fsync,
// then compaction past the configured trigger. The changed records are
// returned even when the node is ephemeral or its store is failing —
// replication needs the delta regardless of local durability. Store
// errors never propagate: they feed the lame-duck counter instead (see
// storeFailLocked).
func (n *Node) persistDiff() []DeviceRecord {
	states := n.svc.Devices()
	keys := []string(nil)
	if c := n.svc.Cache(); c != nil {
		keys = c.Keys()
	}
	gen := n.svc.SweepGeneration()

	n.mu.Lock()
	defer n.mu.Unlock()
	var changed []DeviceRecord
	for _, st := range states {
		rec := RecordFromState(st)
		if prev, ok := n.persisted[st.ID]; ok && prev == rec {
			continue
		}
		changed = append(changed, rec)
	}
	if n.store == nil || n.lame {
		// Nothing to write: an ephemeral node has no store, and a lame
		// node's is broken. Both track the reported picture in
		// n.persisted so the next delta stays precise.
		for _, rec := range changed {
			n.persisted[rec.ID] = rec
		}
		return changed
	}
	batch := make([]WALRecord, 0, len(changed)+1)
	for _, rec := range changed {
		batch = append(batch, WALRecord{Kind: recUpsert, Device: rec})
	}
	var newKeys []string
	for _, k := range keys {
		if _, ok := n.knownKeys[k]; !ok {
			batch = append(batch, WALRecord{Kind: recCacheKey, Key: k})
			newKeys = append(newKeys, k)
		}
	}
	if gen > n.persistedGen {
		batch = append(batch, WALRecord{Kind: recSweepGen, Gen: gen})
	}
	if err := n.appendLocked(batch...); err != nil {
		n.storeFailLocked(err)
		return changed
	}
	for _, rec := range changed {
		n.persisted[rec.ID] = rec
	}
	for _, k := range newKeys {
		n.knownKeys[k] = struct{}{}
	}
	n.persistedGen = max(n.persistedGen, gen)
	if err := n.flushLocked(); err != nil {
		n.storeFailLocked(err)
		return changed
	}
	n.storeFails = 0
	return changed
}

// flushLocked fsyncs the WAL and compacts it once it holds
// cfg.SnapshotEvery records. Caller holds n.mu; the store is live.
//
//lofat:locked mu
func (n *Node) flushLocked() error {
	if err := n.store.Sync(); err != nil {
		return fmt.Errorf("fed: node %s: wal sync: %w", n.cfg.ID, err)
	}
	if n.store.Records() >= n.cfg.SnapshotEvery {
		return n.compactLocked()
	}
	return nil
}

// storeFailLocked records one failed persistence pass; at the
// configured threshold the node flips to lame duck. Caller holds n.mu.
//
//lofat:locked mu
func (n *Node) storeFailLocked(err error) {
	n.storeFails++
	n.lameErr = err.Error()
	if n.storeFails >= n.cfg.LameDuckAfter && !n.lame {
		n.lame = true
		if f := n.svc.Flight(); f != nil {
			f.Record(obs.Event{Device: string(n.cfg.ID), Kind: obs.KindLameDuck,
				Detail: n.lameErr, Sweep: n.svc.SweepGeneration()})
		}
	}
}

// Health reports whether the node is lame (read-only degraded service)
// and, if so, the store error that put it there.
func (n *Node) Health() (lame bool, reason string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lame, n.lameErr
}

// appendLocked logs a batch of records as one write (no-op when
// ephemeral or lame — a lame node's store is broken, and retrying every
// append against a dead disk would only add latency to the degraded
// service that remains). Caller holds n.mu.
//
//lofat:locked mu
func (n *Node) appendLocked(recs ...WALRecord) error {
	if n.store == nil || n.lame {
		return nil
	}
	if err := n.store.Append(recs...); err != nil {
		return fmt.Errorf("fed: node %s: %w", n.cfg.ID, err)
	}
	return nil
}

// materializeLocked builds the State the store should describe. Caller
// holds n.mu.
//
//lofat:locked mu
func (n *Node) materializeLocked() *State {
	st := NewState(n.cfg.ID)
	st.SweepGen = n.persistedGen
	for id, rec := range n.persisted {
		st.Devices[id] = rec
	}
	// Devices still pending (program never re-registered this run) are
	// part of the durable picture too.
	for _, byProg := range n.pending {
		for id, rec := range byProg {
			st.Devices[id] = rec
		}
	}
	for k := range n.knownKeys {
		st.CacheKeys[k] = struct{}{}
	}
	return st
}

// MaterializedState returns the node's current durable picture — what
// a warm restart would recover. Chaos tests compare this across a
// kill/reopen cycle.
func (n *Node) MaterializedState() *State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.materializeLocked()
}

//lofat:locked mu
func (n *Node) compactLocked() error {
	if err := n.store.Compact(n.materializeLocked()); err != nil {
		return fmt.Errorf("fed: node %s: %w", n.cfg.ID, err)
	}
	return nil
}

// Compact forces a snapshot generation now.
func (n *Node) Compact() error {
	if n.store == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.compactLocked()
}

// SyncRecords applies authoritative device records pushed by the
// coordinator's anti-entropy pass (or its rejoin reconciliation):
// overwrite the policy fields of a device the node holds, enrol from
// the record when the program is registered but the device absent, and
// park it in the pending set otherwise (adopted when the program
// arrives, exactly like warm-restart recovery). The applied records
// that moved the persisted picture are WAL-logged as one batch.
func (n *Node) SyncRecords(recs []DeviceRecord) error {
	applied := recs
	var err error
	for i, rec := range recs {
		if err = n.syncRecord(rec); err != nil {
			applied = recs[:i]
			break
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// moved holds each device's newest record in this batch, so a device
	// listed twice is compared against its own earlier entry.
	moved := make(map[fleet.DeviceID]DeviceRecord, len(applied))
	var batch []WALRecord
	for _, rec := range applied {
		prev, ok := moved[rec.ID]
		if !ok {
			prev, ok = n.persisted[rec.ID]
		}
		if ok && prev == rec {
			continue
		}
		moved[rec.ID] = rec
		batch = append(batch, WALRecord{Kind: recUpsert, Device: rec})
	}
	if n.lame {
		return err // the broken store no longer describes the node
	}
	if aerr := n.appendLocked(batch...); aerr != nil {
		n.storeFailLocked(aerr)
		return err
	}
	for id, rec := range moved {
		n.persisted[id] = rec
	}
	if n.store != nil {
		if ferr := n.flushLocked(); ferr != nil {
			n.storeFailLocked(ferr)
		}
	}
	return err
}

// syncRecord applies one pushed record to the fleet service, or parks
// it until its program is registered.
func (n *Node) syncRecord(rec DeviceRecord) error {
	st := rec.State()
	if n.svc.SyncState(st) {
		return nil
	}
	n.mu.Lock()
	_, registered := n.programs[rec.Program]
	n.mu.Unlock()
	if registered {
		if err := n.svc.EnrollState(st); err != nil {
			return fmt.Errorf("fed: node %s: sync device %q: %w", n.cfg.ID, rec.ID, err)
		}
		return nil
	}
	n.mu.Lock()
	byProg, ok := n.pending[rec.Program]
	if !ok {
		byProg = make(map[fleet.DeviceID]DeviceRecord)
		n.pending[rec.Program] = byProg
	}
	byProg[rec.ID] = rec
	n.mu.Unlock()
	return nil
}

// FetchRecords snapshots the named devices as wire records; devices
// the node does not hold are silently absent from the result.
func (n *Node) FetchRecords(ids []fleet.DeviceID) []DeviceRecord {
	out := make([]DeviceRecord, 0, len(ids))
	for _, id := range ids {
		if st, ok := n.svc.Device(id); ok {
			out = append(out, RecordFromState(st))
		}
	}
	return out
}

// Close shuts the node down cleanly: fleet workers drained, WAL synced
// and closed. A lame node's store is already broken — its handle is
// dropped crash-style rather than risking a hang on a dead disk.
func (n *Node) Close() error {
	n.svc.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.store == nil || n.killed {
		return nil
	}
	if n.lame {
		n.store.Abandon()
		return nil
	}
	return n.store.Close()
}

// Kill is the chaos switch: the node stops as a crash would — no final
// sync, no snapshot, WAL handle dropped as-is. Whatever the OS already
// wrote is what recovery gets.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.store != nil && !n.killed {
		n.store.Abandon()
	}
	n.killed = true
	n.mu.Unlock()
	n.svc.Close()
}

// ServeConn handles coordinator requests on one connection until EOF
// or transport error — the node side of the control plane. Run it in a
// goroutine per accepted connection.
func (n *Node) ServeConn(conn io.ReadWriter) error {
	for {
		if err := n.handleOne(conn); err != nil {
			return err
		}
	}
}

// handleOne reads and answers a single request frame. The returned
// error is transport-level only — request refusals go back on the wire
// as msgErr frames and keep the connection serving.
func (n *Node) handleOne(conn io.ReadWriter) error {
	typ, body, err := attest.ReadFrame(conn)
	if err != nil {
		return err
	}
	switch typ {
	case msgRegister:
		var req registerReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		id, err := n.RegisterProgram(req.Prog, req.DevCfg, req.Inputs)
		if err != nil {
			return writeErr(conn, err)
		}
		return writeResp(conn, msgOK, okResp{Node: n.cfg.ID, Program: id})
	case msgEnroll:
		var req enrollReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		if err := n.Enroll(req.State); err != nil {
			return writeErr(conn, err)
		}
		return writeResp(conn, msgOK, okResp{Node: n.cfg.ID})
	case msgSweep:
		var req sweepReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		rep, changed, err := n.sweep(req)
		if err != nil {
			return writeErr(conn, err)
		}
		lame, lameErr := n.Health()
		if !lame {
			lameErr = ""
		}
		nr := NodeReport{
			Node:     n.cfg.ID,
			Devices:  n.svc.FleetSize(),
			Report:   rep,
			Metrics:  n.svc.Metrics(),
			Flight:   n.flightDelta(),
			LameDuck: lame,
			StoreErr: lameErr,
		}
		if req.WantDelta {
			nr.Changed = changed
		}
		return writeResp(conn, msgReport, nr)
	case msgSync:
		var req syncReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		if err := n.SyncRecords(req.Records); err != nil {
			return writeErr(conn, err)
		}
		return writeResp(conn, msgOK, okResp{Node: n.cfg.ID})
	case msgFetch:
		var req fetchReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		return writeResp(conn, msgRecords, recordsResp{Records: n.FetchRecords(req.Devices)})
	case msgTransfer:
		var req deviceReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		st, found, err := n.Transfer(req.Device)
		if err != nil {
			return writeErr(conn, err)
		}
		return writeResp(conn, msgState, stateResp{Found: found, State: st})
	case msgRelease:
		var req deviceReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		found, err := n.Release(req.Device)
		if err != nil {
			return writeErr(conn, err)
		}
		st, _ := n.svc.Device(req.Device)
		return writeResp(conn, msgState, stateResp{Found: found, State: st})
	case msgGet:
		var req deviceReq
		if err := decodePayload(body, &req); err != nil {
			return writeErr(conn, err)
		}
		st, found := n.svc.Device(req.Device)
		return writeResp(conn, msgState, stateResp{Found: found, State: st})
	default:
		return writeErr(conn, fmt.Errorf("fed: node %s: unknown request type %d", n.cfg.ID, typ))
	}
}

// flightDelta returns the node's flight events newer than the last
// delta it shipped, so the coordinator accumulates each event exactly
// once across sweeps.
func (n *Node) flightDelta() []obs.Event {
	events := n.svc.Flight().Events()
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []obs.Event
	for _, e := range events {
		if e.Seq > n.lastFlightSeq {
			out = append(out, e)
			n.lastFlightSeq = e.Seq
		}
	}
	return out
}
