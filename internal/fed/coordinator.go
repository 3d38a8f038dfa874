package fed

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/obs"
)

// DialFunc opens a control-plane transport to a verifier node.
type DialFunc func() (io.ReadWriteCloser, error)

// Config parameterises a Coordinator. Zero values select defaults.
type Config struct {
	// Replicas is the replication factor R: every device is placed on
	// an ordered set of R distinct nodes — the first live one acts for
	// it each sweep, the rest hold warm state and take over mid-sweep
	// when it fails (default 1: no replication, single-owner placement).
	Replicas int
	// VirtualNodes is the virtual-node count per physical node on the
	// placement ring (default DefaultReplicas).
	VirtualNodes int
	// ReadTimeout / WriteTimeout are the per-phase deadlines on
	// control-plane exchanges other than sweeps (default 30s each; a
	// negative value disables that deadline).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// SweepTimeout is the read deadline while waiting for a node's
	// sweep report — a sweep legitimately takes as long as the node's
	// slowest device rounds, so it gets its own, longer budget
	// (default 5m; negative disables).
	SweepTimeout time.Duration
	// RetryAttempts is the total number of transport attempts per node
	// exchange (default 2); RetryBackoff is the flat pre-retry delay
	// (default 50ms).
	RetryAttempts int
	RetryBackoff  time.Duration
	// BreakerThreshold trips a node's circuit breaker after this many
	// consecutive failed exchanges; the node then sits out
	// BreakerProbeAfter federated sweeps between half-open probes.
	// Default 3; negative disables. The same healthy → degraded →
	// tripped lifecycle the fleet applies per device, applied per node.
	BreakerThreshold  int
	BreakerProbeAfter int
	// Obs attaches the coordinator's observability hub: node gauges on
	// Reg, topology events (join/leave/rebalance) on Flight.
	Obs *obs.Hub
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultReplicas
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.SweepTimeout == 0 {
		c.SweepTimeout = 5 * time.Minute
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerProbeAfter <= 0 {
		c.BreakerProbeAfter = 1
	}
}

// nodeClient is the coordinator's handle on one member node: a
// persistent control-plane connection (re-dialled on failure) plus the
// node's circuit-breaker bookkeeping.
//
// Two locks, deliberately: exMu serialises exchanges (the control
// plane is one request/response stream per node), while mu guards the
// connection handle and breaker state. They used to be one lock, which
// meant Leave's close() queued behind an in-flight sweep exchange for
// up to the full sweep timeout; with the split, close() severs the
// conn immediately — the blocked exchange takes a transport error and
// the closed flag stops its retry loop from re-dialling a node that is
// no longer a member.
type nodeClient struct {
	id   NodeID
	dial DialFunc

	exMu sync.Mutex // serialises request/response exchanges

	mu     sync.Mutex // guards everything below
	conn   io.ReadWriteCloser
	closed bool

	breaker fleet.Breaker
	// lame mirrors the node's last reported lame-duck flag; the sweep
	// planner deprioritises lame nodes when choosing acting replicas.
	lame    bool
	devices atomic.Int64 // last reported enrolment, for the gauge
}

// isLame reports the node's last known lame-duck state.
func (nc *nodeClient) isLame() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.lame
}

// setLame records the lame-duck flag from a sweep report; it reports
// whether the flag flipped on.
func (nc *nodeClient) setLame(lame bool) (flipped bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	flipped = lame && !nc.lame
	nc.lame = lame
	return flipped
}

// deviceMeta is the coordinator's own record of an enrolment — enough
// to re-enroll the device fresh if its owning node dies with the state.
type deviceMeta struct {
	Program attest.ProgramID
	Pub     ed25519.PublicKey
	Addr    string
}

// Coordinator owns the federation: the placement ring, one client per
// member node, the authoritative enrolment table, and the sweep fan-out
// that merges per-node reports into fleet verdicts.
type Coordinator struct {
	cfg     Config
	flight  *obs.Flight
	metrics *coordMetrics

	mu       sync.Mutex
	ring     *Ring
	clients  map[NodeID]*nodeClient
	programs map[attest.ProgramID]registerReq
	devices  map[fleet.DeviceID]deviceMeta
	sweepGen uint64
	// topoGen counts ring/membership mutations; a sweep re-reads its
	// placement between failover waves when it observes a newer
	// generation, so a Leave or Rejoin landing mid-sweep cannot leave a
	// wave routing devices by a ring that no longer exists.
	topoGen uint64
}

type coordMetrics struct {
	sweeps        obs.Counter
	nodeFailures  obs.Counter
	nodeRetries   obs.Counter
	breakerTrips  obs.Counter
	breakerResets obs.Counter
	rebalanced    obs.Counter
	transferred   obs.Counter

	failoverDevices  obs.Counter
	failoverWaves    obs.Counter
	uncoveredDevices obs.Counter
	syncedRecords    obs.Counter
}

// NewCoordinator builds an empty federation.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(cfg.VirtualNodes),
		clients:  make(map[NodeID]*nodeClient),
		programs: make(map[attest.ProgramID]registerReq),
		devices:  make(map[fleet.DeviceID]deviceMeta),
		metrics:  &coordMetrics{},
	}
	if hub := cfg.Obs; hub != nil {
		c.flight = hub.Flight
		if reg := hub.Reg; reg != nil {
			reg.RegisterCounter("lofat_fed_sweeps", "", "Federated sweeps completed.", &c.metrics.sweeps)
			reg.RegisterCounter("lofat_fed_node_failures", "", "Node exchanges lost after all attempts.", &c.metrics.nodeFailures)
			reg.RegisterCounter("lofat_fed_node_retries", "", "Extra node-exchange attempts beyond the first.", &c.metrics.nodeRetries)
			reg.RegisterCounter("lofat_fed_node_breaker_trips", "", "Node circuit-breaker trips.", &c.metrics.breakerTrips)
			reg.RegisterCounter("lofat_fed_node_breaker_resets", "", "Node circuit-breaker resets.", &c.metrics.breakerResets)
			reg.RegisterCounter("lofat_fed_rebalanced_devices", "", "Devices reassigned by ring changes.", &c.metrics.rebalanced)
			reg.RegisterCounter("lofat_fed_transferred_devices", "", "Reassigned devices moved with full state.", &c.metrics.transferred)
			reg.RegisterCounter("lofat_fed_failover_devices", "", "Devices re-issued against a replica after their acting node failed mid-sweep.", &c.metrics.failoverDevices)
			reg.RegisterCounter("lofat_fed_failover_waves", "", "Extra placement waves federated sweeps needed beyond the first.", &c.metrics.failoverWaves)
			reg.RegisterCounter("lofat_fed_uncovered_devices", "", "Devices no live replica could verify in a sweep.", &c.metrics.uncoveredDevices)
			reg.RegisterCounter("lofat_fed_synced_records", "", "Device records pushed to replicas by anti-entropy.", &c.metrics.syncedRecords)
			reg.RegisterGaugeFunc("lofat_fed_lame_nodes", "", "Member nodes in lame-duck (read-only) service.", func() int64 {
				var lame int64
				for _, nc := range c.clientList() {
					if nc.isLame() {
						lame++
					}
				}
				return lame
			})
			reg.RegisterGaugeFunc("lofat_fed_nodes", "", "Member verifier nodes.", func() int64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return int64(c.ring.Len())
			})
			reg.RegisterGaugeFunc("lofat_fed_devices", "", "Devices enrolled across the federation.", func() int64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return int64(len(c.devices))
			})
		}
	}
	return c
}

// RebalanceReport summarises the device moves one ring change caused.
type RebalanceReport struct {
	// Node is the node that joined or left; Joined says which.
	Node   NodeID
	Joined bool
	// Moved devices changed owner; Transferred of those moved with
	// their full state (quarantine, breaker, counters) from the old
	// owner, and Recovered were re-enrolled fresh from coordinator
	// metadata because the old owner could not hand them off.
	Moved       int
	Transferred int
	Recovered   int
	// Errors lists devices that could not be placed at all (their new
	// owner refused the enrolment).
	Errors []string
}

// Join adds a verifier node to the federation: programs are registered
// on it, the ring is extended, and every device whose placement moved
// onto the new node is handed off (with state where possible).
func (c *Coordinator) Join(id NodeID, dial DialFunc) (*RebalanceReport, error) {
	c.mu.Lock()
	if _, dup := c.clients[id]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("fed: node %s already a member", id)
	}
	nc := &nodeClient{id: id, dial: dial}
	progs := c.programSpecs()
	c.mu.Unlock()

	// Register every known program before the node owns any devices.
	if err := c.registerAll(nc, progs); err != nil {
		return nil, fmt.Errorf("fed: join %s: %w", id, err)
	}

	c.mu.Lock()
	old := c.ring.Clone()
	c.ring.Add(id)
	c.clients[id] = nc
	c.topoGen++
	c.mu.Unlock()
	c.recordTopology(obs.KindNodeJoin, id, "")
	rep := c.rebalance(old, id, true)
	return rep, nil
}

// Leave removes a node from the federation, first draining its devices
// to their new owners (with state while the node is still reachable).
func (c *Coordinator) Leave(id NodeID) (*RebalanceReport, error) {
	c.mu.Lock()
	nc, ok := c.clients[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("fed: node %s is not a member", id)
	}
	old := c.ring.Clone()
	c.ring.Remove(id)
	c.topoGen++
	c.mu.Unlock()
	rep := c.rebalance(old, id, false)
	c.mu.Lock()
	delete(c.clients, id)
	c.topoGen++
	c.mu.Unlock()
	nc.close()
	c.recordTopology(obs.KindNodeLeave, id, "")
	return rep, nil
}

// Rejoin reattaches a node that crashed and restarted without changing
// the ring: the client connection and breaker are reset, programs are
// re-registered (idempotent node-side; a warm node adopts its restored
// devices here). State then reconciles in two tiers. Devices with a
// live replica on another node are bulk-fetched from that peer and
// pushed onto the rejoiner — the peers kept acting while this node was
// down, so their copy is authoritative and carries quarantines and
// breaker history the rejoiner's own store missed. Devices with no
// live peer (R=1, or every other replica dead) fall back to the old
// path: keep whatever the node restored from disk, re-enroll fresh
// from coordinator metadata only if it holds nothing.
func (c *Coordinator) Rejoin(id NodeID, dial DialFunc) error {
	c.mu.Lock()
	if !c.ring.Has(id) {
		c.mu.Unlock()
		return fmt.Errorf("fed: node %s is not a member (use Join)", id)
	}
	if old := c.clients[id]; old != nil {
		old.close()
	}
	nc := &nodeClient{id: id, dial: dial}
	c.clients[id] = nc
	c.topoGen++
	progs := c.programSpecs()
	owned := c.ownedBy(id)
	peers := c.clientsLocked()
	peerOf := make(map[fleet.DeviceID]NodeID, len(owned))
	for _, dev := range owned {
		for _, o := range c.ring.AssignN(string(dev.id), c.cfg.Replicas) {
			if o != id && peers[o] != nil {
				peerOf[dev.id] = o
				break
			}
		}
	}
	c.mu.Unlock()

	if err := c.registerAll(nc, progs); err != nil {
		return fmt.Errorf("fed: rejoin %s: %w", id, err)
	}

	// Tier 1: pull authoritative records from live peer replicas, then
	// push them onto the rejoiner (enroll-or-overwrite node-side).
	// Failures demote the affected devices to the tier-2 path instead of
	// failing the rejoin — a flaky peer must not keep a node out.
	byPeer := make(map[NodeID][]fleet.DeviceID)
	for _, dev := range owned {
		if peer, ok := peerOf[dev.id]; ok {
			byPeer[peer] = append(byPeer[peer], dev.id)
		}
	}
	synced := make(map[fleet.DeviceID]bool)
	peerIDs := make([]NodeID, 0, len(byPeer))
	for peer := range byPeer {
		peerIDs = append(peerIDs, peer)
	}
	sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })
	for _, peer := range peerIDs {
		ids := byPeer[peer]
		recs, err := ask[recordsResp](c, peers[peer], msgFetch, fetchReq{Devices: ids}, msgRecords)
		if err != nil {
			continue
		}
		if len(recs.Records) == 0 {
			continue
		}
		if err := c.pushRecords(nc, recs.Records); err != nil {
			return fmt.Errorf("fed: rejoin %s: sync state from %s: %w", id, peer, err)
		}
		c.metrics.syncedRecords.Add(uint64(len(recs.Records)))
		for _, rec := range recs.Records {
			synced[rec.ID] = true
		}
	}

	// Tier 2: no live peer had the device — trust the node's own
	// restored copy, re-enrolling fresh only when it holds nothing.
	for _, dev := range owned {
		if synced[dev.id] {
			continue
		}
		st, err := ask[stateResp](c, nc, msgGet, deviceReq{Device: dev.id}, msgState)
		if err != nil {
			return fmt.Errorf("fed: rejoin %s: query device %q: %w", id, dev.id, err)
		}
		if st.Found {
			continue
		}
		if _, err := ask[okResp](c, nc, msgEnroll, enrollReq{State: freshState(dev.id, dev.meta)}, msgOK); err != nil {
			return fmt.Errorf("fed: rejoin %s: re-enroll device %q: %w", id, dev.id, err)
		}
	}
	c.recordTopology(obs.KindNodeJoin, id, "rejoin")
	return nil
}

// syncChunk bounds one msgSync payload; anti-entropy and rejoin pushes
// split larger record sets so no frame nears the transport's 16 MiB cap.
const syncChunk = 2048

// pushRecords upserts records onto a node in bounded chunks.
func (c *Coordinator) pushRecords(nc *nodeClient, recs []DeviceRecord) error {
	for len(recs) > 0 {
		chunk := recs
		if len(chunk) > syncChunk {
			chunk = chunk[:syncChunk]
		}
		recs = recs[len(chunk):]
		if _, err := ask[okResp](c, nc, msgSync, syncReq{Records: chunk}, msgOK); err != nil {
			return err
		}
	}
	return nil
}

type ownedDevice struct {
	id   fleet.DeviceID
	meta deviceMeta
}

// ownedBy lists devices whose replica set includes node, sorted. Caller
// holds c.mu.
func (c *Coordinator) ownedBy(node NodeID) []ownedDevice {
	var out []ownedDevice
	for id, meta := range c.devices {
		for _, owner := range c.ring.AssignN(string(id), c.cfg.Replicas) {
			if owner == node {
				out = append(out, ownedDevice{id: id, meta: meta})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// programSpecs lists registered program specs. Caller holds c.mu.
func (c *Coordinator) programSpecs() []registerReq {
	out := make([]registerReq, 0, len(c.programs))
	for _, spec := range c.programs {
		out = append(out, spec)
	}
	return out
}

// registerAll registers every program spec on one node.
func (c *Coordinator) registerAll(nc *nodeClient, progs []registerReq) error {
	for _, spec := range progs {
		if _, err := ask[okResp](c, nc, msgRegister, spec, msgOK); err != nil {
			return fmt.Errorf("register program: %w", err)
		}
	}
	return nil
}

// clientsLocked snapshots the member clients by node ID. Caller holds
// c.mu.
func (c *Coordinator) clientsLocked() map[NodeID]*nodeClient {
	out := make(map[NodeID]*nodeClient, len(c.clients))
	for id, nc := range c.clients {
		out[id] = nc
	}
	return out
}

// freshState is the zero-history DeviceState of a new (or recovered)
// enrolment.
func freshState(id fleet.DeviceID, meta deviceMeta) fleet.DeviceState {
	return fleet.DeviceState{ID: id, Addr: meta.Addr, Program: meta.Program, Pub: meta.Pub}
}

// rebalance moves every (device, replica) assignment that changed
// between the old and new ring. For each replica a device gained, the
// coordinator first tries a stateful hand-off — Transfer from a holder
// the device lost (the leave-drain path: state moves off the departing
// node), then a copy from a surviving replica — and falls back to a
// fresh enrolment from its own metadata when neither source answers
// (the changed node, on a leave, may already be dead; that must not
// strand its devices). Lost holders that no hand-off consumed are then
// drained with a discard-Transfer so standby copies do not accumulate
// on nodes the ring no longer assigns.
func (c *Coordinator) rebalance(old *Ring, changed NodeID, joined bool) *RebalanceReport {
	rep := &RebalanceReport{Node: changed, Joined: joined}
	c.mu.Lock()
	type move struct {
		id        fleet.DeviceID
		meta      deviceMeta
		added     []NodeID
		removed   []NodeID
		survivors []NodeID
	}
	var moves []move
	for id, meta := range c.devices {
		oldOwners := old.AssignN(string(id), c.cfg.Replicas)
		newOwners := c.ring.AssignN(string(id), c.cfg.Replicas)
		if len(newOwners) == 0 {
			continue // ring emptied; nothing to place onto
		}
		was := make(map[NodeID]bool, len(oldOwners))
		for _, o := range oldOwners {
			was[o] = true
		}
		now := make(map[NodeID]bool, len(newOwners))
		for _, o := range newOwners {
			now[o] = true
		}
		mv := move{id: id, meta: meta}
		for _, o := range newOwners {
			if was[o] {
				mv.survivors = append(mv.survivors, o)
			} else {
				mv.added = append(mv.added, o)
			}
		}
		for _, o := range oldOwners {
			if !now[o] {
				mv.removed = append(mv.removed, o)
			}
		}
		if len(mv.added) == 0 && len(mv.removed) == 0 {
			continue
		}
		moves = append(moves, mv)
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].id < moves[j].id })
	clients := c.clientsLocked()
	c.mu.Unlock()

	for _, mv := range moves {
		rep.Moved++
		c.metrics.rebalanced.Inc()
		removedPool := append([]NodeID(nil), mv.removed...)
		stateful, recovered := false, false
		for _, target := range mv.added {
			state := freshState(mv.id, mv.meta)
			got := false
			// Preferred source: a holder the device lost — Transfer both
			// moves the state and drains the old copy in one exchange.
			if len(removedPool) > 0 {
				if from := clients[removedPool[0]]; from != nil {
					if st, err := ask[stateResp](c, from, msgTransfer, deviceReq{Device: mv.id}, msgState); err == nil && st.Found {
						state = st.State
						got = true
						removedPool = removedPool[1:]
					}
				}
			}
			// Else copy from a surviving replica (which keeps its copy).
			if !got {
				for _, src := range mv.survivors {
					if from := clients[src]; from != nil {
						if st, err := ask[stateResp](c, from, msgGet, deviceReq{Device: mv.id}, msgState); err == nil && st.Found {
							state = st.State
							got = true
							break
						}
					}
				}
			}
			to := clients[target]
			if to == nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: new owner %s has no client", mv.id, target))
				continue
			}
			if _, err := ask[okResp](c, to, msgEnroll, enrollReq{State: state}, msgOK); err != nil {
				// A refusal usually means the target already holds the
				// device — a warm copy from an earlier topology, or a
				// concurrent sweep's anti-entropy push landing first.
				// Upsert the authoritative hand-off state over it rather
				// than failing the move; transport errors stay errors.
				var ne *NodeError
				if !errors.As(err, &ne) {
					rep.Errors = append(rep.Errors, fmt.Sprintf("%s: enroll on %s: %v", mv.id, target, err))
					continue
				}
				if serr := c.pushRecords(to, []DeviceRecord{RecordFromState(state)}); serr != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("%s: enroll on %s: %v", mv.id, target, err))
					continue
				}
			}
			if got {
				stateful = true
			} else {
				recovered = true
			}
			if c.flight.Enabled() {
				c.flight.Record(obs.Event{Device: string(mv.id), Kind: obs.KindRebalance,
					Detail: fmt.Sprintf("→ %s", target)})
			}
		}
		// Drain surplus copies no hand-off consumed (best-effort: the
		// holder may already be dead, and a stale standby copy is only
		// wasted memory, never authoritative).
		for _, holder := range removedPool {
			if from := clients[holder]; from != nil {
				_, _ = ask[stateResp](c, from, msgTransfer, deviceReq{Device: mv.id}, msgState)
			}
		}
		switch {
		case stateful:
			rep.Transferred++
			c.metrics.transferred.Inc()
		case recovered:
			rep.Recovered++
		}
	}
	return rep
}

// recordTopology logs a node join/leave flight event.
func (c *Coordinator) recordTopology(kind obs.EventKind, id NodeID, detail string) {
	if c.flight.Enabled() {
		c.flight.Record(obs.Event{Device: string(id), Kind: kind, Detail: detail})
	}
}

// RegisterProgram registers a firmware image on every member node and
// remembers the spec for nodes that join later.
func (c *Coordinator) RegisterProgram(prog *asm.Program, devCfg core.Config, inputs [][]uint32) (attest.ProgramID, error) {
	spec := registerReq{Prog: prog, DevCfg: devCfg, Inputs: inputs}
	clients := c.clientList()
	if len(clients) == 0 {
		return attest.ProgramID{}, fmt.Errorf("fed: no member nodes")
	}
	var id attest.ProgramID
	for _, nc := range clients {
		resp, err := ask[okResp](c, nc, msgRegister, spec, msgOK)
		if err != nil {
			return attest.ProgramID{}, fmt.Errorf("fed: register on %s: %w", nc.id, err)
		}
		id = resp.Program
	}
	c.mu.Lock()
	c.programs[id] = spec
	c.mu.Unlock()
	return id, nil
}

// Enroll places a device on its full replica set: the fresh state is
// enrolled on every owner, so standbys hold warm copies from round
// zero. Enrolment is all-or-nothing — a replica that refuses (a lame
// duck, say) fails the enrol and the copies already placed are rolled
// back, keeping the invariant that an enrolled device is held by all
// of its owners.
func (c *Coordinator) Enroll(id fleet.DeviceID, prog attest.ProgramID, pub ed25519.PublicKey, addr string) error {
	c.mu.Lock()
	if _, dup := c.devices[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fed: device %q already enrolled", id)
	}
	owners := c.ring.AssignN(string(id), c.cfg.Replicas)
	if len(owners) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("fed: no member nodes")
	}
	targets := make([]*nodeClient, len(owners))
	for i, o := range owners {
		targets[i] = c.clients[o]
	}
	meta := deviceMeta{Program: prog, Pub: append(ed25519.PublicKey(nil), pub...), Addr: addr}
	c.mu.Unlock()

	state := freshState(id, meta)
	for i, nc := range targets {
		if _, err := ask[okResp](c, nc, msgEnroll, enrollReq{State: state}, msgOK); err != nil {
			for _, prev := range targets[:i] {
				_, _ = ask[stateResp](c, prev, msgTransfer, deviceReq{Device: id}, msgState)
			}
			return fmt.Errorf("fed: enroll %q on %s: %w", id, owners[i], err)
		}
	}
	c.mu.Lock()
	c.devices[id] = meta
	c.mu.Unlock()
	return nil
}

// Owner reports the node acting for a device: the first owner in its
// replica set — the one a fault-free sweep challenges it from.
func (c *Coordinator) Owner(id fleet.DeviceID) (NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.devices[id]; !known {
		return "", false
	}
	return c.ring.Assign(string(id))
}

// replicaClients snapshots the live clients for a device's replica set,
// in placement order.
func (c *Coordinator) replicaClients(id fleet.DeviceID) []*nodeClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*nodeClient
	for _, o := range c.ring.AssignN(string(id), c.cfg.Replicas) {
		if nc := c.clients[o]; nc != nil {
			out = append(out, nc)
		}
	}
	return out
}

// Device queries a device's registry state, walking its replica set in
// placement order so a dead primary does not mask a live copy.
func (c *Coordinator) Device(id fleet.DeviceID) (fleet.DeviceState, NodeID, error) {
	cands := c.replicaClients(id)
	if len(cands) == 0 {
		return fleet.DeviceState{}, "", fmt.Errorf("fed: no owner for device %q", id)
	}
	var lastErr error
	lastOwner := cands[0].id
	for _, nc := range cands {
		st, err := ask[stateResp](c, nc, msgGet, deviceReq{Device: id}, msgState)
		if err != nil {
			lastErr, lastOwner = err, nc.id
			continue
		}
		if st.Found {
			return st.State, nc.id, nil
		}
		lastErr, lastOwner = fmt.Errorf("fed: device %q not held by node %s", id, nc.id), nc.id
	}
	return fleet.DeviceState{}, lastOwner, lastErr
}

// Release lifts a device's quarantine on every reachable replica — the
// copies must agree immediately, not at the next anti-entropy pass, or
// a failover could resurrect the quarantine the operator just lifted.
// It succeeds when at least one holder applied the release.
func (c *Coordinator) Release(id fleet.DeviceID) error {
	cands := c.replicaClients(id)
	if len(cands) == 0 {
		return fmt.Errorf("fed: no owner for device %q", id)
	}
	applied := false
	var firstErr error
	for _, nc := range cands {
		st, err := ask[stateResp](c, nc, msgRelease, deviceReq{Device: id}, msgState)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.Found {
			applied = true
		}
	}
	if applied {
		return nil
	}
	if firstErr != nil {
		return firstErr
	}
	return fmt.Errorf("fed: device %q not held by node %s", id, cands[0].id)
}

// Nodes lists member node IDs, sorted.
func (c *Coordinator) Nodes() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// FleetSize reports the coordinator's enrolment count.
func (c *Coordinator) FleetSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.devices)
}

// clientList snapshots the member clients sorted by node ID.
func (c *Coordinator) clientList() []*nodeClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*nodeClient, 0, len(c.clients))
	for _, nc := range c.clients {
		out = append(out, nc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Sweep fans one federated sweep out over the program's devices and
// merges per-node reports into a single fleet verdict. Placement is
// wave-based: wave 1 challenges every device from the first live,
// non-lame node in its replica set (and still contacts owner-less
// member nodes, keeping node health observable); when a node's breaker
// is open or its exchange fails mid-sweep, the devices it was acting
// for are re-issued against their next live replica in the following
// wave of the SAME sweep, with per-device attribution in the verdict.
// A device whose every replica is dead is reported Uncovered rather
// than silently dropped. After the waves, an anti-entropy pass pushes
// the device records the sweep changed onto their other live replicas
// so standbys stay warm for the next failure.
func (c *Coordinator) Sweep(prog attest.ProgramID, input []uint32, streamed bool) (*FleetVerdict, error) {
	gen := atomic.AddUint64(&c.sweepGen, 1)
	start := time.Now()
	R := c.cfg.Replicas
	wantDelta := R > 1

	c.mu.Lock()
	if len(c.clients) == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("fed: no member nodes")
	}
	remaining := make([]fleet.DeviceID, 0, len(c.devices))
	for id, meta := range c.devices {
		if meta.Program == prog {
			remaining = append(remaining, id)
		}
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })
	topo := c.topoGen
	memberCount := len(c.clients)
	c.mu.Unlock()

	// Per-sweep node fates. A node that skips (breaker open) or fails
	// its exchange is dead for the remaining waves: failover reroutes
	// its devices, it is never retried within this sweep.
	gates := make(map[NodeID]struct{ skip, probe bool })
	dead := make(map[NodeID]bool)
	folded := make(map[NodeID]NodeReport)
	next := make(map[fleet.DeviceID]int) // replica cursor per device
	failedOver := make(map[fleet.DeviceID]NodeID)
	var uncovered []fleet.DeviceID

	waves := 0
	for waves <= 2*memberCount+2 { // belt: cursor advance already bounds this
		waves++

		// Snapshot membership and placement for this wave. If topology
		// moved since the last wave (Leave/Join/Rejoin mid-sweep), the
		// replica cursors index stale owner lists — reset them; the dead
		// map still keeps failed nodes out.
		c.mu.Lock()
		clients := c.clientsLocked()
		if c.topoGen != topo {
			topo = c.topoGen
			next = make(map[fleet.DeviceID]int)
		}
		owners := make(map[fleet.DeviceID][]NodeID, len(remaining))
		for _, id := range remaining {
			if _, held := c.devices[id]; !held {
				continue // released/forgotten mid-sweep: drop, not uncovered
			}
			owners[id] = c.ring.AssignN(string(id), R)
		}
		c.mu.Unlock()

		// Freeze this wave's view of every member; each node's breaker is
		// consulted once per sweep.
		nodes := make(map[NodeID]nodeView, len(clients))
		for n, nc := range clients {
			g, gated := gates[n]
			nc.mu.Lock()
			if !gated {
				g.skip, g.probe = nc.breaker.Check(gen, c.cfg.BreakerProbeAfter)
				gates[n] = g
			}
			nodes[n] = nodeView{dead: dead[n], open: g.skip, lame: nc.lame}
			nc.mu.Unlock()
		}
		plan := planWave(remaining, owners, next, nodes, waves == 1)
		for _, n := range plan.skipped {
			dead[n] = true
			folded[n] = NodeReport{Node: n, Skipped: true}
		}
		uncovered = append(uncovered, plan.uncovered...)
		if len(plan.groups) == 0 {
			break
		}

		type waveRes struct {
			node NodeID
			devs []fleet.DeviceID
			rep  NodeReport
		}
		results := make(chan waveRes, len(plan.groups))
		var wg sync.WaitGroup
		for n, devs := range plan.groups {
			wg.Add(1)
			go func(n NodeID, devs []fleet.DeviceID) {
				defer wg.Done()
				rep := c.sweepNode(clients[n], prog, input, streamed, gen, gates[n].probe, devs, wantDelta)
				results <- waveRes{node: n, devs: devs, rep: rep}
			}(n, devs)
		}
		wg.Wait()
		close(results)

		remaining = remaining[:0]
		for res := range results {
			prev, seen := folded[res.node]
			if !seen {
				prev = NodeReport{Node: res.node}
			}
			folded[res.node] = foldNodeReport(prev, res.rep)
			if res.rep.Err != "" {
				// Whatever this node was acting for moves to the next
				// replica in the following wave.
				dead[res.node] = true
				for _, id := range res.devs {
					next[id] = plan.picked[id] + 1
					remaining = append(remaining, id)
				}
				continue
			}
			for _, id := range res.devs {
				if plan.picked[id] == 0 {
					continue
				}
				// Served by a non-primary replica: mid-sweep failover.
				failedOver[id] = res.node
				c.metrics.failoverDevices.Inc()
				if c.flight.Enabled() {
					from := NodeID("?")
					if own := owners[id]; len(own) > 0 {
						from = own[0]
					}
					c.flight.Record(obs.Event{Device: string(id), Kind: obs.KindFailover, Sweep: gen,
						Detail: fmt.Sprintf("%s → %s", from, res.node)})
				}
			}
		}
		if len(remaining) == 0 {
			break
		}
		sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })
	}
	if len(remaining) > 0 {
		uncovered = append(uncovered, remaining...) // wave belt tripped
	}

	if wantDelta {
		c.antiEntropy(folded, dead)
	}

	reports := make([]NodeReport, 0, len(folded))
	for _, rep := range folded {
		reports = append(reports, rep)
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i] < uncovered[j] })
	c.metrics.sweeps.Inc()
	if waves > 1 {
		c.metrics.failoverWaves.Add(uint64(waves - 1))
	}
	c.metrics.uncoveredDevices.Add(uint64(len(uncovered)))
	if len(failedOver) == 0 {
		failedOver = nil
	}
	return mergeVerdict(prog, input, reports, failedOver, uncovered, waves, time.Since(start)), nil
}

// nodeView is what the wave planner knows about one member node.
type nodeView struct {
	dead bool // skipped or failed earlier in this sweep
	open bool // breaker open: sits this sweep out
	lame bool // lame duck: serves sweeps, but only as a last resort
}

// wavePlan is one wave's placement.
type wavePlan struct {
	// groups is the acting device set per node to contact (nil: the
	// node acts for nothing and gets the empty health-probe exchange).
	groups map[NodeID][]fleet.DeviceID
	// picked is the replica index chosen for each placed device.
	picked map[fleet.DeviceID]int
	// uncovered lists devices with no usable replica left.
	uncovered []fleet.DeviceID
	// skipped lists, sorted, the breaker-open nodes not yet marked dead:
	// the caller marks them, so each is reported once per sweep.
	skipped []NodeID
}

// planWave places each remaining device on its first usable replica at
// or after its cursor: a member, not dead this sweep, breaker closed,
// and not lame — a lame duck still serves sweeps, so it is the fallback
// of last resort before declaring the device uncovered. nodes holds one
// entry per live member. With probeIdle (wave 1) every usable member is
// contacted even if it acts for nothing: the empty exchange is the
// health probe that keeps NodesOK (and lame-duck reporting) covering
// the whole federation.
func planWave(remaining []fleet.DeviceID, owners map[fleet.DeviceID][]NodeID, next map[fleet.DeviceID]int, nodes map[NodeID]nodeView, probeIdle bool) wavePlan {
	p := wavePlan{groups: make(map[NodeID][]fleet.DeviceID), picked: make(map[fleet.DeviceID]int)}
	for _, id := range remaining {
		own := owners[id]
		chosen, lameIdx := -1, -1
		for j := next[id]; j < len(own); j++ {
			v, member := nodes[own[j]]
			if !member || v.dead || v.open {
				continue
			}
			if v.lame {
				if lameIdx < 0 {
					lameIdx = j
				}
				continue
			}
			chosen = j
			break
		}
		if chosen < 0 {
			chosen = lameIdx
		}
		if chosen < 0 {
			p.uncovered = append(p.uncovered, id)
			continue
		}
		p.picked[id] = chosen
		p.groups[own[chosen]] = append(p.groups[own[chosen]], id)
	}
	for n, v := range nodes {
		if v.dead {
			continue
		}
		if v.open {
			p.skipped = append(p.skipped, n)
			continue
		}
		if _, acting := p.groups[n]; probeIdle && !acting {
			p.groups[n] = nil
		}
	}
	sort.Slice(p.skipped, func(i, j int) bool { return p.skipped[i] < p.skipped[j] })
	return p
}

// antiEntropy reconciles replicas after a sweep: every device record a
// node's waves changed is pushed onto the device's other live replicas,
// so a standby that takes over at the next failure starts from the
// state the acting node just wrote (quarantines, streaks, breakers) —
// not from the enrolment-time snapshot. Push failures are tolerated:
// the records re-surface as drift in the next sweep's delta.
func (c *Coordinator) antiEntropy(folded map[NodeID]NodeReport, dead map[NodeID]bool) {
	c.mu.Lock()
	clients := c.clientsLocked()
	targetsOf := func(id fleet.DeviceID) []NodeID {
		if _, held := c.devices[id]; !held {
			return nil
		}
		return c.ring.AssignN(string(id), c.cfg.Replicas)
	}
	push := make(map[NodeID][]DeviceRecord)
	for source, rep := range folded {
		for _, rec := range rep.Changed {
			for _, target := range targetsOf(rec.ID) {
				if target == source || dead[target] || clients[target] == nil {
					continue
				}
				push[target] = append(push[target], rec)
			}
		}
	}
	c.mu.Unlock()

	targets := make([]NodeID, 0, len(push))
	for t := range push {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, t := range targets {
		if err := c.pushRecords(clients[t], push[t]); err != nil {
			continue
		}
		c.metrics.syncedRecords.Add(uint64(len(push[t])))
	}
}

// sweepNode runs one node's sweep exchange for its acting device set.
// Breaker gating already happened at the planner; this folds the
// outcome back into the breaker — with the twist that a node removed
// from the federation mid-exchange (Leave raced the sweep) must not
// have the failure its severed connection produced counted as breaker
// evidence against a future member under the same ID.
func (c *Coordinator) sweepNode(nc *nodeClient, prog attest.ProgramID, input []uint32, streamed bool, gen uint64, probe bool, devs []fleet.DeviceID, wantDelta bool) NodeReport {
	rep := NodeReport{Node: nc.id, Probe: probe}
	req := sweepReq{Program: prog, Input: input, Streamed: streamed, Devices: devs, WantDelta: wantDelta}
	var nodeRep NodeReport
	// A sweep legitimately takes as long as the node's slowest device
	// rounds, so its report read gets its own, longer budget.
	to := attest.Timeouts{Read: c.cfg.SweepTimeout, Write: c.cfg.WriteTimeout}
	attempts, err := c.request(nc, msgSweep, req, msgReport, &nodeRep, to)
	rep.Attempts = attempts
	if err != nil {
		rep.Err = err.Error()
		var ne *NodeError
		if !errors.As(err, &ne) {
			// Transport failure: breaker evidence. A NodeError is not —
			// the node answered; it just refused the request.
			c.metrics.nodeFailures.Inc()
			c.mu.Lock()
			member := c.clients[nc.id] == nc
			c.mu.Unlock()
			if member {
				nc.mu.Lock()
				tripped := nc.breaker.Fail(c.cfg.BreakerThreshold, gen)
				nc.mu.Unlock()
				if tripped {
					c.metrics.breakerTrips.Inc()
					c.recordTopology(obs.KindNodeLeave, nc.id, "breaker tripped: "+err.Error())
				}
			}
		}
		return rep
	}
	nc.mu.Lock()
	reset := nc.breaker.Succeed()
	nc.mu.Unlock()
	if reset {
		c.metrics.breakerResets.Inc()
	}
	if flipped := nc.setLame(nodeRep.LameDuck); flipped && c.flight.Enabled() {
		c.flight.Record(obs.Event{Device: string(nc.id), Kind: obs.KindLameDuck, Sweep: gen,
			Detail: nodeRep.StoreErr})
	}
	nodeRep.Probe = probe
	nodeRep.Attempts = attempts
	nc.devices.Store(int64(nodeRep.Devices))
	return nodeRep
}

// request runs one exchange against a node with bounded retries on
// transport failures, re-dialling the persistent connection per
// attempt. It returns the attempts spent. Only exMu is held across the
// wire exchange: a concurrent close() (Leave, Rejoin) severs the
// connection under the state lock, failing the in-flight exchange
// immediately, and the closed flag stops the retry loop from
// re-dialling a node that is no longer a member.
func (c *Coordinator) request(nc *nodeClient, reqTyp byte, req any, respTyp byte, resp any, to attest.Timeouts) (int, error) {
	if nc == nil {
		return 0, fmt.Errorf("fed: no client for node")
	}
	nc.exMu.Lock()
	defer nc.exMu.Unlock()
	var err error
	for attempt := 1; attempt <= c.cfg.RetryAttempts; attempt++ {
		if attempt > 1 {
			c.metrics.nodeRetries.Inc()
			time.Sleep(c.cfg.RetryBackoff)
		}
		nc.mu.Lock()
		if nc.closed {
			nc.mu.Unlock()
			return attempt, fmt.Errorf("fed: node %s: client closed", nc.id)
		}
		conn := nc.conn
		nc.mu.Unlock()
		if conn == nil {
			conn, err = nc.dial()
			if err != nil {
				err = fmt.Errorf("fed: dial node %s: %w", nc.id, err)
				continue
			}
			nc.mu.Lock()
			if nc.closed {
				nc.mu.Unlock()
				conn.Close()
				return attempt, fmt.Errorf("fed: node %s: client closed", nc.id)
			}
			nc.conn = conn
			nc.mu.Unlock()
		}
		err = exchange(conn, to, nc.id, reqTyp, req, respTyp, resp)
		if err == nil {
			return attempt, nil
		}
		var te *attest.TransportError
		if errors.As(err, &te) {
			// The stream is dead or desynchronised; next attempt re-dials.
			nc.mu.Lock()
			if nc.conn == conn {
				nc.conn = nil
			}
			closed := nc.closed
			nc.mu.Unlock()
			conn.Close()
			if closed {
				return attempt, err
			}
			continue
		}
		// Node-level refusal or protocol mismatch: not retryable.
		return attempt, err
	}
	return c.cfg.RetryAttempts, err
}

// ask runs one non-sweep exchange under the control-plane timeouts and
// returns the decoded response.
func ask[R any](c *Coordinator, nc *nodeClient, reqTyp byte, req any, respTyp byte) (R, error) {
	var resp R
	to := attest.Timeouts{Read: c.cfg.ReadTimeout, Write: c.cfg.WriteTimeout}
	_, err := c.request(nc, reqTyp, req, respTyp, &resp, to)
	return resp, err
}

// close marks the client dead and severs its connection. It does NOT
// wait for in-flight exchanges — severing the conn fails them with a
// transport error, and the closed flag stops their retry loops.
func (nc *nodeClient) close() {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.closed = true
	if nc.conn != nil {
		nc.conn.Close()
		nc.conn = nil
	}
}

// NodeBreaker reports a node's breaker position.
func (c *Coordinator) NodeBreaker(id NodeID) (fleet.BreakerState, bool) {
	c.mu.Lock()
	nc := c.clients[id]
	c.mu.Unlock()
	if nc == nil {
		return fleet.BreakerHealthy, false
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.breaker.State, true
}

// Close tears down every node connection (the nodes themselves keep
// running; they are independent processes).
func (c *Coordinator) Close() {
	for _, nc := range c.clientList() {
		nc.close()
	}
}
