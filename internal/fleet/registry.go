package fleet

import (
	"crypto/ed25519"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"lofat/internal/attest"
)

// DeviceID names one enrolled device (serial number, asset tag, ...).
type DeviceID string

// BreakerState is the position of one device's transport circuit
// breaker. It is deliberately distinct from quarantine: quarantine is a
// measurement verdict (the device attested and the attestation was
// rejected), the breaker is a transport verdict (the device stalls,
// drops connections, or cannot be reached). A compromised device that
// wedges exchanges mid-frame is cheaper for an attacker than one that
// forges a measurement; the breaker stops it from consuming a full
// timeout-and-retry budget on every sweep.
type BreakerState uint8

const (
	// BreakerHealthy: recent exchanges completed; rounds run normally.
	BreakerHealthy BreakerState = iota
	// BreakerDegraded: consecutive transport failures below the trip
	// threshold. Rounds still run; the state is operator visibility.
	BreakerDegraded
	// BreakerTripped: consecutive failures reached the threshold.
	// Rounds are skipped without paying the timeout budget, except one
	// half-open probe after the device sits out the configured number
	// of sweeps; a completed exchange closes the breaker again.
	BreakerTripped
)

func (b BreakerState) String() string {
	switch b {
	case BreakerHealthy:
		return "healthy"
	case BreakerDegraded:
		return "degraded"
	case BreakerTripped:
		return "tripped"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(b))
	}
}

// Breaker is the transport circuit-breaker state machine (see
// BreakerState), shared by the per-device breakers here and the
// federation's per-node breakers. It carries no lock: the owner guards
// it with whatever guards the record it lives in.
type Breaker struct {
	State BreakerState
	Fails int    // consecutive failed exchanges (all attempts exhausted)
	Gen   uint64 // sweep generation of the trip or last failed probe
}

// Check gates one exchange at sweep generation gen: skip says it must
// not run (breaker open), probe that it runs as the half-open probe a
// tripped breaker gets after sitting out probeAfter sweeps.
func (b *Breaker) Check(gen uint64, probeAfter int) (skip, probe bool) {
	if b.State != BreakerTripped {
		return false, false
	}
	probe = gen > b.Gen+uint64(probeAfter)
	return !probe, probe
}

// Fail folds one transport-level failure in and reports whether it
// newly tripped the breaker (never, with a negative threshold). A failed
// half-open probe re-arms the sit-out window from gen.
func (b *Breaker) Fail(threshold int, gen uint64) (tripped bool) {
	if threshold < 0 {
		return false
	}
	b.Fails++
	switch {
	case b.State == BreakerTripped:
		b.Gen = gen
	case b.Fails >= threshold:
		b.State, b.Gen = BreakerTripped, gen
		return true
	default:
		b.State = BreakerDegraded
	}
	return false
}

// Succeed folds one completed exchange in and reports whether an open
// breaker closed.
func (b *Breaker) Succeed() (closed bool) {
	closed = b.State == BreakerTripped
	b.Reset()
	return closed
}

// Reset clears the failure streak and closes the breaker (operator
// release). Gen only matters while tripped and is left alone.
func (b *Breaker) Reset() { b.State, b.Fails = BreakerHealthy, 0 }

// device is the registry's record of one enrolled prover. Mutable
// fields are guarded by the owning shard's lock.
type device struct {
	id       DeviceID
	addr     string
	program  attest.ProgramID
	pub      ed25519.PublicKey
	verifier *attest.Verifier

	//lofat:guardedby mu
	quarantined bool
	//lofat:guardedby mu
	consecutiveRejects int
	//lofat:guardedby mu
	rounds uint64
	//lofat:guardedby mu
	accepted uint64
	//lofat:guardedby mu
	rejected uint64
	//lofat:guardedby mu
	transportErrors uint64
	//lofat:guardedby mu
	lastClass attest.Classification
	//lofat:guardedby mu
	lastFindings []string
	//lofat:guardedby mu
	lastError string
	//lofat:guardedby mu
	lastAttested time.Time

	//lofat:guardedby mu
	breaker Breaker
}

// DeviceState is an exported point-in-time snapshot of a device record.
type DeviceState struct {
	ID      DeviceID
	Addr    string
	Program attest.ProgramID
	Pub     ed25519.PublicKey

	Quarantined        bool
	ConsecutiveRejects int
	Rounds             uint64
	Accepted           uint64
	Rejected           uint64
	TransportErrors    uint64
	// LastClass is the classification of the most recent verified round
	// (meaningful once Rounds > 0).
	LastClass    attest.Classification
	LastFindings []string
	LastError    string
	LastAttested time.Time

	// Breaker is the transport circuit breaker position;
	// ConsecutiveTransportFails is the failed-round streak feeding it.
	// BreakerGen is the sweep generation of the trip (or last failed
	// half-open probe); together with the service's sweep counter it
	// paces when the next probe fires, so it must survive a restore or a
	// restarted node would probe a tripped device immediately.
	Breaker                   BreakerState
	ConsecutiveTransportFails int
	BreakerGen                uint64
}

//lofat:locked mu
func (d *device) snapshot() DeviceState {
	return DeviceState{
		ID:                 d.id,
		Addr:               d.addr,
		Program:            d.program,
		Pub:                append(ed25519.PublicKey(nil), d.pub...),
		Quarantined:        d.quarantined,
		ConsecutiveRejects: d.consecutiveRejects,
		Rounds:             d.rounds,
		Accepted:           d.accepted,
		Rejected:           d.rejected,
		TransportErrors:    d.transportErrors,
		LastClass:          d.lastClass,
		LastFindings:       append([]string(nil), d.lastFindings...),
		LastError:          d.lastError,
		LastAttested:       d.lastAttested,

		Breaker:                   d.breaker.State,
		ConsecutiveTransportFails: d.breaker.Fails,
		BreakerGen:                d.breaker.Gen,
	}
}

// tripped is the ids/count predicate for an open breaker; both run it
// under the shard's read lock.
//
//lofat:locked mu
func (d *device) tripped() bool { return d.breaker.State == BreakerTripped }

// breaker reassembles the snapshot's breaker fields.
func (st DeviceState) breaker() Breaker {
	return Breaker{State: st.Breaker, Fails: st.ConsecutiveTransportFails, Gen: st.BreakerGen}
}

// Registry is the sharded device store: N independently locked shards
// so enrolment lookups and result recording from the worker pool spread
// contention instead of serialising on one fleet-wide mutex.
type Registry struct {
	shards []*shard
}

type shard struct {
	mu sync.RWMutex
	//lofat:guardedby mu
	devices map[DeviceID]*device
}

// NewRegistry builds a registry with n shards (n < 1 selects 1).
func NewRegistry(n int) *Registry {
	if n < 1 {
		n = 1
	}
	r := &Registry{shards: make([]*shard, n)}
	for i := range r.shards {
		r.shards[i] = &shard{devices: make(map[DeviceID]*device)}
	}
	return r
}

func (r *Registry) shardFor(id DeviceID) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

func (r *Registry) add(d *device) error {
	sh := r.shardFor(d.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.devices[d.id]; dup {
		return fmt.Errorf("fleet: device %q already enrolled", d.id)
	}
	sh.devices[d.id] = d
	return nil
}

// remove deletes a device, returning its final snapshot. This is the
// federation hand-off primitive: the snapshot carries everything a
// receiving node needs to restore the device mid-history.
func (r *Registry) remove(id DeviceID) (DeviceState, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[id]
	if !ok {
		return DeviceState{}, false
	}
	st := d.snapshot()
	delete(sh.devices, id)
	return st, true
}

func (r *Registry) get(id DeviceID) (*device, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.devices[id]
	return d, ok
}

// Len reports the number of enrolled devices.
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.devices)
		sh.mu.RUnlock()
	}
	return n
}

// State snapshots one device.
func (r *Registry) State(id DeviceID) (DeviceState, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.devices[id]
	if !ok {
		return DeviceState{}, false
	}
	return d.snapshot(), true
}

// States snapshots the whole fleet, sorted by device ID.
func (r *Registry) States() []DeviceState {
	var out []DeviceState
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, d := range sh.devices {
			out = append(out, d.snapshot())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ids lists the devices matching pred, sorted.
func (r *Registry) ids(pred func(*device) bool) []DeviceID {
	var out []DeviceID
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, d := range sh.devices {
			if pred(d) {
				out = append(out, d.id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// count reports how many devices match pred.
func (r *Registry) count(pred func(*device) bool) int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, d := range sh.devices {
			if pred(d) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Quarantined lists quarantined device IDs, sorted.
func (r *Registry) Quarantined() []DeviceID {
	//lofat:ignore locked the pred runs inside ids, which holds each shard's read lock around it
	return r.ids(func(d *device) bool { return d.quarantined })
}

// Release lifts a device's quarantine (operator action) and restores it
// to full service: the rejection streak, the transport-failure streak
// and an open circuit breaker are all cleared — an operator
// re-provisioning a device fixes its transport along with its firmware,
// and this is also the recovery path for breakers tripped outside
// sweeps (direct Submit rounds never fire half-open probes). It reports
// whether the device exists.
func (r *Registry) Release(id DeviceID) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[id]
	if !ok {
		return false
	}
	d.quarantined = false
	d.consecutiveRejects = 0
	d.breaker.Reset()
	return true
}

// sync overwrites the replicated policy fields of an enrolled device —
// quarantine, streaks, lifetime counters, breaker position — with a
// snapshot from another replica, leaving identity (address, key,
// verifier) and local diagnostics (findings, last error, timestamps)
// untouched. It reports false when the device is absent or enrolled for
// a different program; anti-entropy callers fall back to a full
// EnrollState in that case.
func (r *Registry) sync(st DeviceState) bool {
	sh := r.shardFor(st.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[st.ID]
	if !ok || d.program != st.Program {
		return false
	}
	d.quarantined = st.Quarantined
	d.consecutiveRejects = st.ConsecutiveRejects
	d.rounds = st.Rounds
	d.accepted = st.Accepted
	d.rejected = st.Rejected
	d.transportErrors = st.TransportErrors
	d.lastClass = st.LastClass
	d.breaker = st.breaker()
	return true
}

// membersOf returns the devices enrolled for a program, sorted by ID
// for deterministic sweep order.
func (r *Registry) membersOf(prog attest.ProgramID) []*device {
	var out []*device
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, d := range sh.devices {
			if d.program == prog {
				out = append(out, d)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// authenticatedReject reports whether a rejection is backed by a report
// that authenticated as coming from the device (valid signature,
// coherent protocol): only those are evidence of compromise. Signature
// and protocol failures are exactly what an on-path attacker or a
// corrupting link produces, so they feed the transport breaker instead
// of the quarantine policy — otherwise one flipped byte on the wire
// would quarantine an honest device, and a man-in-the-middle could
// quarantine the whole fleet.
func authenticatedReject(res attest.Result) bool {
	return res.Class != attest.ClassSignature && res.Class != attest.ClassProtocol
}

// resultOutcome is the registry bookkeeping of one completed exchange.
type resultOutcome struct {
	NewlyQuarantined bool
	BreakerClosed    bool
	Tripped          bool
}

// recordResult folds a verified round into the device record and
// applies the quarantine policy. An exchange whose report authenticated
// is also transport health: the failure streak resets and an open
// breaker closes. An unauthenticated reject (signature/protocol class)
// is the opposite — indistinguishable from wire tampering, it advances
// the breaker and leaves the quarantine streak alone.
func (r *Registry) recordResult(id DeviceID, res attest.Result, quarantineAfter, breakerThreshold int, gen uint64) resultOutcome {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out resultOutcome
	d, ok := sh.devices[id]
	if !ok {
		return out
	}
	d.rounds++
	d.lastClass = res.Class
	d.lastFindings = append([]string(nil), res.Findings...)
	d.lastAttested = time.Now()
	if !res.Accepted && !authenticatedReject(res) {
		// Transport verdict, not a measurement one: the device-level
		// Accepted/Rejected counters track authenticated verdicts only.
		d.transportErrors++
		d.lastError = fmt.Sprintf("unauthenticated report (%v)", res.Class)
		out.Tripped = d.breaker.Fail(breakerThreshold, gen)
		return out
	}
	d.lastError = ""
	out.BreakerClosed = d.breaker.Succeed()
	if res.Accepted {
		d.accepted++
		d.consecutiveRejects = 0
		return out
	}
	d.rejected++
	d.consecutiveRejects++
	if !d.quarantined && d.consecutiveRejects >= quarantineAfter {
		d.quarantined = true
		out.NewlyQuarantined = true
	}
	return out
}

// recordError folds a failed round (all transport attempts exhausted)
// into the device record and advances the circuit breaker. Errors do
// not advance the quarantine streak: an unreachable device is an
// availability problem, not evidence of compromise. It reports whether
// this failure newly tripped the breaker.
func (r *Registry) recordError(id DeviceID, err error, threshold int, gen uint64) (tripped bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[id]
	if !ok {
		return false
	}
	d.transportErrors++
	d.lastError = err.Error()
	return d.breaker.Fail(threshold, gen)
}

// breakerCheck gates one round on the device's breaker: skip reports
// that the round must not run (breaker open), probe that it runs as the
// half-open probe. Rounds outside sweeps (gen 0) never probe a tripped
// breaker.
func (r *Registry) breakerCheck(id DeviceID, gen uint64, probeAfter int) (skip, probe bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.devices[id]
	if !ok {
		return false, false
	}
	return d.breaker.Check(gen, probeAfter)
}

// Tripped lists devices whose transport breaker is tripped, sorted.
func (r *Registry) Tripped() []DeviceID {
	return r.ids((*device).tripped)
}
