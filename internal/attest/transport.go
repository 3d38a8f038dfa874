package attest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"lofat/internal/obs"
)

// Message types on the wire. The attest package owns type bytes 1-15;
// protocol extensions riding the same frame transport allocate from 16
// up (internal/stream uses 16-19 for its segmented-attestation
// messages; internal/fed uses 32-47 for its coordinator↔node
// control-plane messages).
const (
	MsgChallenge byte = 1
	MsgReport    byte = 2
	MsgError     byte = 3
)

// maxMessageSize bounds a frame to keep a malicious peer from forcing
// unbounded allocation.
const maxMessageSize = 16 << 20

// frameChunk is all ReadFrame allocates before payload bytes arrive: a
// frame up to it (every report, segment and federation frame) costs one
// exact allocation, and a longer one grows only as its bytes arrive.
const frameChunk = 64 << 10

// TransportError marks an I/O failure on the frame transport — the
// bytes could not be moved — as opposed to a protocol violation or a
// verification verdict. Callers use it to decide whether a failed
// exchange is worth retrying (a timed-out or dropped connection may
// recover; a peer speaking garbage will not).
type TransportError struct {
	Op  string // "read frame" or "write frame"
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("attest: %s: %v", e.Op, e.Err) }

func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the underlying failure was a deadline expiry
// (net.Error timeout or os.ErrDeadlineExceeded), distinguishing a
// stalled peer from a dropped connection.
func (e *TransportError) Timeout() bool {
	var t interface{ Timeout() bool }
	if errors.As(e.Err, &t) {
		return t.Timeout()
	}
	return false
}

// LocalError marks a failure that occurred verifier-side before any
// bytes moved — challenge/session creation, golden-run or cache
// failures. It carries no evidence about the peer: callers applying
// per-peer health policy (retry, circuit breaking) must not attribute
// it to the device.
type LocalError struct {
	Err error
}

func (e *LocalError) Error() string { return fmt.Sprintf("attest: verifier-local: %v", e.Err) }

func (e *LocalError) Unwrap() error { return e.Err }

// DeadlineConn is the optional transport interface for per-phase I/O
// deadlines. net.Conn and net.Pipe implement it; in-memory buffers do
// not and simply run without deadlines.
type DeadlineConn interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Timeouts are per-phase I/O deadlines for one protocol exchange: each
// read phase (waiting for the peer's next frame) and each write phase
// gets its own deadline, so a peer that stalls mid-frame — cheaper for
// an attacker than forging a measurement — cannot wedge the caller
// forever. Zero fields disable the corresponding deadline; conns that
// do not implement DeadlineConn are used as-is.
type Timeouts struct {
	Read  time.Duration
	Write time.Duration
}

// ArmRead sets the read deadline on conn for the next read phase, when
// both the timeout and the conn support it.
func (t Timeouts) ArmRead(conn any) {
	if t.Read <= 0 {
		return
	}
	if dc, ok := conn.(DeadlineConn); ok {
		_ = dc.SetReadDeadline(time.Now().Add(t.Read))
	}
}

// ArmWrite sets the write deadline on conn for the next write phase,
// when both the timeout and the conn support it.
func (t Timeouts) ArmWrite(conn any) {
	if t.Write <= 0 {
		return
	}
	if dc, ok := conn.(DeadlineConn); ok {
		_ = dc.SetWriteDeadline(time.Now().Add(t.Write))
	}
}

// Disarm clears any deadlines this exchange armed, so a connection
// reused for a later exchange without timeouts is not poisoned by a
// stale deadline.
func (t Timeouts) Disarm(conn any) {
	dc, ok := conn.(DeadlineConn)
	if !ok {
		return
	}
	if t.Read > 0 {
		_ = dc.SetReadDeadline(time.Time{})
	}
	if t.Write > 0 {
		_ = dc.SetWriteDeadline(time.Time{})
	}
}

// WriteFrame sends a type-tagged, length-prefixed frame — the transport
// unit under every protocol message, shared with extensions
// (internal/stream) so one connection can carry both. Header and
// payload are coalesced into a single Write: an error or a concurrent
// writer can no longer land between them and leave a torn frame on the
// wire.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 5+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(payload)))
	copy(buf[5:], payload)
	if _, err := w.Write(buf); err != nil {
		return &TransportError{Op: "write frame", Err: err}
	}
	return nil
}

// ReadFrame receives one frame.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, &TransportError{Op: "read frame", Err: err}
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMessageSize {
		return 0, nil, fmt.Errorf("attest: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, nil, &TransportError{Op: "read frame", Err: err}
		}
		if off = len(payload); off == int(n) {
			return hdr[0], payload, nil
		}
		payload = append(payload, make([]byte, min(int(n)-off, off))...)
	}
}

// RequestAttestation drives one exchange from the verifier side: send a
// fresh challenge for input, receive the report, and verify it. On any
// failure before verification the challenge nonce is retired, so failed
// exchanges (unreachable or misbehaving provers) do not grow the
// verifier's issued-nonce set — long-lived verifiers polling flaky
// devices stay bounded. conn may be reused across rounds.
//
// The challenge write and the report read each get their own deadline
// from to when the conn supports them (DeadlineConn), so a prover that
// accepts the challenge and then stalls — mid-frame or by going silent —
// fails the exchange with a TransportError whose Timeout() is true
// instead of blocking forever; deadlines armed here are cleared before
// returning. The network and verification phases are recorded as
// "exchange" and "verify" spans on sc's track. The zero Timeouts and
// the zero Scope mean no deadline and no tracing.
func RequestAttestation(conn io.ReadWriter, v *Verifier, input []uint32, to Timeouts, sc obs.Scope) (Result, error) {
	ch, err := v.NewChallenge(input)
	if err != nil {
		return Result{}, &LocalError{Err: err}
	}
	defer to.Disarm(conn)
	fail := func(err error) (Result, error) {
		v.consumeNonce(ch.Nonce)
		return Result{}, err
	}
	xsp := sc.Start("exchange", "attest")
	to.ArmWrite(conn)
	if err := WriteFrame(conn, MsgChallenge, EncodeChallenge(&ch)); err != nil {
		xsp.Arg("error", "write").End()
		return fail(err)
	}
	to.ArmRead(conn)
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		xsp.Arg("error", "read").End()
		return fail(err)
	}
	xsp.End()
	switch typ {
	case MsgReport:
		rep, err := DecodeReport(payload)
		if err != nil {
			return fail(err)
		}
		vsp := sc.Start("verify", "attest")
		res := v.Verify(ch, rep)
		vsp.Arg("class", res.Class.String()).End()
		return res, nil
	case MsgError:
		return fail(fmt.Errorf("attest: prover error: %s", payload))
	default:
		return fail(fmt.Errorf("attest: unexpected message type %d", typ))
	}
}
