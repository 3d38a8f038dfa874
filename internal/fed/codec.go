package fed

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"lofat/internal/attest"
	"lofat/internal/fleet"
	"lofat/internal/wire"
)

// Persistence wire format: all integers little-endian, length-prefixed
// strings, one canonical encoding per value (the attest codec
// discipline). Two containers share it:
//
//	snapshot file:  "LFED" | u16 version | body | u32 crc
//	WAL file:       "LFWL" | u16 version | record*
//	WAL record:     u32 len | u32 crc(body) | body
//	record body:    u8 kind | kind-specific fields
//
// The snapshot CRC covers magic+version+body; a WAL record's CRC covers
// its body only, so each record is independently verifiable and a crash
// mid-append damages at most the final record (the torn tail).

// SnapshotVersion is the schema version this build writes. Loading a
// different version fails loudly — silently reinterpreting breaker or
// quarantine state across schema changes is exactly the failure mode
// the version field exists to prevent.
const SnapshotVersion = 1

const (
	snapshotMagic = "LFED"
	walMagic      = "LFWL"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL record kinds.
const (
	// recUpsert: full DeviceRecord — enrolment or any post-sweep change.
	recUpsert byte = 1
	// recForget: device removed (federation hand-off or teardown).
	recForget byte = 2
	// recQuarantine: operator quarantine flag change (see
	// DeviceRecord.setQuarantined for what clearing it also clears).
	recQuarantine byte = 3
	// recCacheKey: a measurement-cache key the node has warmed.
	recCacheKey byte = 4
	// recSweepGen: the sweep-generation counter after a sweep.
	recSweepGen byte = 5
)

// DeviceRecord is the persistable subset of a fleet.DeviceState: the
// fields that must survive a restart for the node to make the same
// policy decisions it would have made had it stayed up — identity,
// placement, quarantine, breaker lifecycle and the lifetime counters.
// Last-round diagnostics (findings, error text, wall-clock timestamp)
// are deliberately not persisted: they inform operators, not policy.
// The struct is comparable, so the node's post-sweep diff is a plain
// != against the previously persisted record.
type DeviceRecord struct {
	ID      fleet.DeviceID
	Addr    string
	Program attest.ProgramID
	Pub     [ed25519.PublicKeySize]byte

	Quarantined        bool
	ConsecutiveRejects uint32
	Rounds             uint64
	Accepted           uint64
	Rejected           uint64
	TransportErrors    uint64
	LastClass          attest.Classification

	Breaker        fleet.BreakerState
	TransportFails uint32
	BreakerGen     uint64
}

// RecordFromState projects a registry snapshot onto its persistable
// record.
func RecordFromState(st fleet.DeviceState) DeviceRecord {
	r := DeviceRecord{
		ID:                 st.ID,
		Addr:               st.Addr,
		Program:            st.Program,
		Quarantined:        st.Quarantined,
		ConsecutiveRejects: uint32(st.ConsecutiveRejects),
		Rounds:             st.Rounds,
		Accepted:           st.Accepted,
		Rejected:           st.Rejected,
		TransportErrors:    st.TransportErrors,
		LastClass:          st.LastClass,
		Breaker:            st.Breaker,
		TransportFails:     uint32(st.ConsecutiveTransportFails),
		BreakerGen:         st.BreakerGen,
	}
	copy(r.Pub[:], st.Pub)
	return r
}

// State rehydrates the record into the fleet.DeviceState shape that
// Service.EnrollState restores.
func (r DeviceRecord) State() fleet.DeviceState {
	return fleet.DeviceState{
		ID:                 r.ID,
		Addr:               r.Addr,
		Program:            r.Program,
		Pub:                append(ed25519.PublicKey(nil), r.Pub[:]...),
		Quarantined:        r.Quarantined,
		ConsecutiveRejects: int(r.ConsecutiveRejects),
		Rounds:             r.Rounds,
		Accepted:           r.Accepted,
		Rejected:           r.Rejected,
		TransportErrors:    r.TransportErrors,
		LastClass:          r.LastClass,

		Breaker:                   r.Breaker,
		ConsecutiveTransportFails: int(r.TransportFails),
		BreakerGen:                r.BreakerGen,
	}
}

// setQuarantined applies an operator quarantine change to the record by
// the rule fleet.Registry.Release applies to the live device, so the
// node's persisted picture and a WAL replay agree with the registry:
// releasing also clears the reject streak and resets the breaker.
func (r *DeviceRecord) setQuarantined(on bool) {
	r.Quarantined = on
	if on {
		return
	}
	r.ConsecutiveRejects = 0
	br := fleet.Breaker{State: r.Breaker, Fails: int(r.TransportFails), Gen: r.BreakerGen}
	br.Reset()
	r.Breaker, r.TransportFails, r.BreakerGen = br.State, uint32(br.Fails), br.Gen
}

// WALRecord is one append-only log entry. Kind selects which of the
// other fields are meaningful.
type WALRecord struct {
	Kind   byte
	Device DeviceRecord   // recUpsert
	ID     fleet.DeviceID // recForget, recQuarantine
	On     bool           // recQuarantine
	Key    string         // recCacheKey
	Gen    uint64         // recSweepGen
}

func writeDeviceRecord(w *wire.Writer, d DeviceRecord) {
	w.Str(string(d.ID))
	w.Str(d.Addr)
	w.Buf = append(w.Buf, d.Program[:]...)
	w.Buf = append(w.Buf, d.Pub[:]...)
	w.Bool(d.Quarantined)
	w.U32(d.ConsecutiveRejects)
	w.U64(d.Rounds)
	w.U64(d.Accepted)
	w.U64(d.Rejected)
	w.U64(d.TransportErrors)
	w.U8(uint8(d.LastClass))
	w.U8(uint8(d.Breaker))
	w.U32(d.TransportFails)
	w.U64(d.BreakerGen)
}

func readDeviceRecord(r *wire.Reader) DeviceRecord {
	var d DeviceRecord
	d.ID = fleet.DeviceID(r.Str())
	d.Addr = r.Str()
	copy(d.Program[:], r.Raw(len(d.Program), "program id"))
	copy(d.Pub[:], r.Raw(len(d.Pub), "public key"))
	d.Quarantined = r.Bool()
	d.ConsecutiveRejects = r.U32()
	d.Rounds = r.U64()
	d.Accepted = r.U64()
	d.Rejected = r.U64()
	d.TransportErrors = r.U64()
	d.LastClass = attest.Classification(r.U8())
	d.Breaker = fleet.BreakerState(r.U8())
	d.TransportFails = r.U32()
	d.BreakerGen = r.U64()
	return d
}

// encodeRecordBody appends a WAL record body (kind byte + fields) to w.
func encodeRecordBody(w *wire.Writer, rec WALRecord) {
	w.U8(rec.Kind)
	switch rec.Kind {
	case recUpsert:
		writeDeviceRecord(w, rec.Device)
	case recForget:
		w.Str(string(rec.ID))
	case recQuarantine:
		w.Str(string(rec.ID))
		w.Bool(rec.On)
	case recCacheKey:
		w.Str(rec.Key)
	case recSweepGen:
		w.U64(rec.Gen)
	}
}

// decodeRecordBody parses a WAL record body. Unknown kinds are an
// error: a WAL written by a future schema must not be half-understood.
func decodeRecordBody(b []byte) (WALRecord, error) {
	r := &wire.Reader{Prefix: "fed", Buf: b}
	var rec WALRecord
	rec.Kind = r.U8()
	switch rec.Kind {
	case recUpsert:
		rec.Device = readDeviceRecord(r)
	case recForget:
		rec.ID = fleet.DeviceID(r.Str())
	case recQuarantine:
		rec.ID = fleet.DeviceID(r.Str())
		rec.On = r.Bool()
	case recCacheKey:
		rec.Key = r.Str()
	case recSweepGen:
		rec.Gen = r.U64()
	default:
		if r.Err == nil {
			return rec, fmt.Errorf("fed: wal: unknown record kind %d", rec.Kind)
		}
	}
	if r.Err != nil {
		return rec, r.Err
	}
	if r.Off != len(b) {
		return rec, fmt.Errorf("fed: wal: %d trailing bytes in record", len(b)-r.Off)
	}
	return rec, nil
}

// State is a node's materialized persistable state: what a snapshot
// stores and what WAL replay reconstructs.
type State struct {
	Node      NodeID
	SweepGen  uint64
	Devices   map[fleet.DeviceID]DeviceRecord
	CacheKeys map[string]struct{}
}

// NewState returns an empty state for a node.
func NewState(node NodeID) *State {
	return &State{
		Node:      node,
		Devices:   make(map[fleet.DeviceID]DeviceRecord),
		CacheKeys: make(map[string]struct{}),
	}
}

// Apply folds one WAL record into the state.
func (s *State) Apply(rec WALRecord) {
	switch rec.Kind {
	case recUpsert:
		s.Devices[rec.Device.ID] = rec.Device
	case recForget:
		delete(s.Devices, rec.ID)
	case recQuarantine:
		d, ok := s.Devices[rec.ID]
		if !ok {
			return
		}
		d.setQuarantined(rec.On)
		s.Devices[rec.ID] = d
	case recCacheKey:
		s.CacheKeys[rec.Key] = struct{}{}
	case recSweepGen:
		if rec.Gen > s.SweepGen {
			s.SweepGen = rec.Gen
		}
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := NewState(s.Node)
	c.SweepGen = s.SweepGen
	for id, d := range s.Devices {
		c.Devices[id] = d
	}
	for k := range s.CacheKeys {
		c.CacheKeys[k] = struct{}{}
	}
	return c
}

// EncodeSnapshot serializes the state as a schema-versioned,
// checksummed snapshot file image.
func EncodeSnapshot(s *State) []byte {
	var w wire.Writer
	w.Buf = append(w.Buf, snapshotMagic...)
	w.U16(SnapshotVersion)
	w.Str(string(s.Node))
	w.U64(s.SweepGen)
	// Deterministic image: devices and keys sorted, so identical state
	// always snapshots to identical bytes.
	ids := make([]string, 0, len(s.Devices))
	for id := range s.Devices {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		writeDeviceRecord(&w, s.Devices[fleet.DeviceID(id)])
	}
	keys := make([]string, 0, len(s.CacheKeys))
	for k := range s.CacheKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Str(k)
	}
	w.U32(crc32.Checksum(w.Buf, crcTable))
	return w.Buf
}

// DecodeSnapshot parses and verifies a snapshot image. Any damage —
// bad magic, a version this build does not speak, a checksum mismatch,
// truncation — fails loudly; a snapshot is the node's ground truth and
// must never be half-loaded.
func DecodeSnapshot(b []byte) (*State, error) {
	if len(b) < len(snapshotMagic)+2+4 {
		return nil, fmt.Errorf("fed: snapshot: too short (%d bytes)", len(b))
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("fed: snapshot: bad magic %q", b[:len(snapshotMagic)])
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("fed: snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	r := &wire.Reader{Prefix: "fed", Buf: body, Off: len(snapshotMagic)}
	if v := r.U16(); v != SnapshotVersion {
		return nil, fmt.Errorf("fed: snapshot: version %d, this build speaks only %d", v, SnapshotVersion)
	}
	s := NewState(NodeID(r.Str()))
	s.SweepGen = r.U64()
	nDev := int(r.U32())
	if r.Err == nil && nDev > len(body) {
		return nil, fmt.Errorf("fed: snapshot: absurd device count %d", nDev)
	}
	for i := 0; i < nDev && r.Err == nil; i++ {
		d := readDeviceRecord(r)
		s.Devices[d.ID] = d
	}
	nKeys := int(r.U32())
	if r.Err == nil && nKeys > len(body) {
		return nil, fmt.Errorf("fed: snapshot: absurd key count %d", nKeys)
	}
	for i := 0; i < nKeys && r.Err == nil; i++ {
		s.CacheKeys[r.Str()] = struct{}{}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Off != len(body) {
		return nil, fmt.Errorf("fed: snapshot: %d trailing bytes", len(body)-r.Off)
	}
	return s, nil
}
