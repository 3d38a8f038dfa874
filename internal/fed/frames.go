package fed

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
)

// Coordinator↔node control-plane messages ride the attest frame
// transport (type-tagged, length-prefixed, 16 MiB cap) on type bytes
// 32-47 — the range transport.go reserves for this package; attest owns
// 1-15 and internal/stream 16-19, so one listener can multiplex all
// three protocols. Payloads are gob: this is the low-rate control
// plane between trusted verifier nodes, not the per-device data plane,
// so self-describing encoding beats hand-rolled canonical bytes — the
// data plane (challenges, reports, WAL, snapshots) stays canonical.
const (
	// Requests.
	msgRegister byte = 32 // registerReq  → msgOK
	msgEnroll   byte = 33 // enrollReq    → msgOK
	msgSweep    byte = 34 // sweepReq     → msgReport
	msgTransfer byte = 35 // deviceReq    → msgState (extract + forget)
	msgRelease  byte = 36 // deviceReq    → msgState
	msgGet      byte = 37 // deviceReq    → msgState
	msgSync     byte = 38 // syncReq      → msgOK (anti-entropy upsert)
	msgFetch    byte = 39 // fetchReq     → msgRecords (bulk state read)
	// Responses.
	msgRecords byte = 43 // recordsResp
	msgOK      byte = 44 // okResp
	msgReport  byte = 45 // NodeReport
	msgState   byte = 46 // stateResp
	msgErr     byte = 47 // error string (plain bytes, not gob)
)

type registerReq struct {
	Prog   *asm.Program
	DevCfg core.Config
	Inputs [][]uint32
}

type enrollReq struct {
	// State carries fresh enrolments (zero counters) and federation
	// hand-offs (mid-history restores) alike; the node restores whatever
	// is in it via fleet.Service.EnrollState.
	State fleet.DeviceState
}

type sweepReq struct {
	Program  attest.ProgramID
	Input    []uint32
	Streamed bool
	// Devices is the coordinator's acting set for this node this
	// generation: the node challenges exactly these, never every member
	// it holds, so standby replicas keep warm state without
	// double-challenging the prover. An empty list (which gob delivers
	// as nil) is the health probe: warm the cache, challenge nothing.
	Devices []fleet.DeviceID
	// WantDelta asks the node to return the device records its sweep
	// changed, feeding the coordinator's anti-entropy pass. Off for
	// unreplicated federations to keep reports small.
	WantDelta bool
}

type deviceReq struct {
	Device fleet.DeviceID
}

// syncReq pushes authoritative device records onto a replica — the
// anti-entropy write half. The node upserts each record: overwrite the
// policy fields of a device it holds, enrol from the record otherwise.
type syncReq struct {
	Records []DeviceRecord
}

// fetchReq reads a batch of device records — the anti-entropy read
// half, used by Rejoin to pull authoritative state from live replicas.
// Unknown devices are silently absent from the response.
type fetchReq struct {
	Devices []fleet.DeviceID
}

type recordsResp struct {
	Records []DeviceRecord
}

type okResp struct {
	Node    NodeID
	Program attest.ProgramID // msgRegister: the registered program's ID
}

type stateResp struct {
	Found bool
	State fleet.DeviceState
}

// NodeError is a node-side failure relayed over the control plane — the
// remote executed the request and refused it. It is not a transport
// error: retrying the same request buys nothing and the node breaker
// must not count it as the node being unreachable.
type NodeError struct {
	Node NodeID
	Msg  string
}

func (e *NodeError) Error() string { return fmt.Sprintf("fed: node %s: %s", e.Node, e.Msg) }

func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("fed: encode payload: %w", err)
	}
	return buf.Bytes(), nil
}

func decodePayload(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("fed: decode payload: %w", err)
	}
	return nil
}

// exchange runs one request/response round trip on conn with per-phase
// deadlines. The error is a *attest.TransportError when the bytes could
// not be moved (retryable, breaker evidence), a *NodeError when the
// node answered with a refusal, and plain otherwise.
func exchange(conn io.ReadWriter, to attest.Timeouts, node NodeID, reqTyp byte, req any, respTyp byte, resp any) error {
	payload, err := encodePayload(req)
	if err != nil {
		return err
	}
	to.ArmWrite(conn)
	if err := attest.WriteFrame(conn, reqTyp, payload); err != nil {
		to.Disarm(conn)
		return err
	}
	to.ArmRead(conn)
	typ, body, err := attest.ReadFrame(conn)
	to.Disarm(conn)
	if err != nil {
		return err
	}
	switch typ {
	case respTyp:
		return decodePayload(body, resp)
	case msgErr:
		return &NodeError{Node: node, Msg: string(body)}
	default:
		return fmt.Errorf("fed: node %s: expected frame type %d, got %d", node, respTyp, typ)
	}
}

// writeErr answers a request with a refusal frame.
func writeErr(conn io.ReadWriter, err error) error {
	return attest.WriteFrame(conn, msgErr, []byte(err.Error()))
}

// writeResp answers a request with a gob-encoded response frame.
func writeResp(conn io.ReadWriter, typ byte, v any) error {
	payload, err := encodePayload(v)
	if err != nil {
		return err
	}
	return attest.WriteFrame(conn, typ, payload)
}
