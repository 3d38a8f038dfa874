package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"lofat/internal/attest"
)

// Registry hosts streamable programs on one prover device and serves
// both protocols on a single connection: classic challenge frames are
// delegated to the wrapped attest provers, stream opens run a full
// segmented session.
type Registry struct {
	mu      sync.RWMutex
	provers map[attest.ProgramID]*Prover
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{provers: make(map[attest.ProgramID]*Prover)}
}

// Register adds a prover; re-registering the same program replaces it.
func (r *Registry) Register(p *Prover) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.provers[p.ProgramID()] = p
}

// Lookup returns the prover for a program ID.
func (r *Registry) Lookup(id attest.ProgramID) (*Prover, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.provers[id]
	return p, ok
}

// ServeConn handles frames on one connection until EOF. Stream opens
// execute the program with segments written back as they seal; if a
// segment write fails (the verifier rejected mid-stream and dropped
// the transport) the execution is aborted — the device stops running
// the attacked workload instead of finishing it.
func (r *Registry) ServeConn(conn io.ReadWriter) error {
	for {
		typ, payload, err := attest.ReadFrame(conn)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch typ {
		case attest.MsgChallenge:
			err := attest.HandleChallenge(conn, payload, func(id attest.ProgramID) (*attest.Prover, bool) {
				p, ok := r.Lookup(id)
				if !ok {
					return nil, false
				}
				return p.Inner(), true
			})
			if err != nil {
				return err
			}
		case MsgStreamOpen:
			open, err := DecodeOpen(payload)
			if err != nil {
				return err
			}
			p, ok := r.Lookup(open.Program)
			if !ok {
				if err := attest.WriteFrame(conn, attest.MsgError, []byte("unknown program")); err != nil {
					return err
				}
				continue
			}
			cr, err := p.Stream(*open, func(sr *SegmentReport) error {
				return attest.WriteFrame(conn, MsgSegment, EncodeSegment(sr))
			})
			if err != nil {
				// Report the failure without leaking internals; if even
				// the error frame cannot be written the transport is
				// dead (mid-stream abort) and the connection is done.
				if werr := attest.WriteFrame(conn, attest.MsgError, []byte("stream attestation failed")); werr != nil {
					return err
				}
				continue
			}
			if err := attest.WriteFrame(conn, MsgStreamClose, EncodeClose(cr)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("stream: unexpected message type %d", typ)
		}
	}
}

// NewServer wraps the registry in a TCP server on the attest listener
// plumbing (bind with Listen, stop with Close).
func NewServer(r *Registry) *attest.Server {
	return attest.NewServerFunc(r.ServeConn)
}

// RequestStream drives one streamed attestation session from the
// verifier side: open, consume segments as they arrive, and either
// reject at the first divergent segment — the early abort; the caller
// should then drop the connection so the prover's next segment write
// fails and the run stops — or verify the close report. Transport
// failures retire the session nonce, mirroring attest.RequestAttestation.
//
// The open write and every segment read arm their own deadline from to
// when the conn supports them (attest.DeadlineConn). The read deadline
// bounds the gap between consecutive segments, so a prover that opens a
// session and then stalls — mid-frame or between checkpoints — fails
// the round with a timeout instead of wedging the verifier for as long
// as the device pretends to run. Deadlines armed here are cleared
// before returning; the zero Timeouts mean no deadline.
func RequestStream(conn io.ReadWriter, v *Verifier, input []uint32, to attest.Timeouts) (Result, error) {
	s, open, err := v.Open(input)
	if err != nil {
		// Session creation failed verifier-side (golden run, cache,
		// nonce entropy): no bytes moved, so the failure says nothing
		// about the device.
		return Result{}, &attest.LocalError{Err: err}
	}
	defer to.Disarm(conn)
	fail := func(err error) (Result, error) {
		s.Abort()
		return Result{}, err
	}
	to.ArmWrite(conn)
	if err := attest.WriteFrame(conn, MsgStreamOpen, EncodeOpen(open)); err != nil {
		return fail(err)
	}
	for {
		to.ArmRead(conn)
		typ, payload, err := attest.ReadFrame(conn)
		if err != nil {
			return fail(err)
		}
		switch typ {
		case MsgSegment:
			sr, err := DecodeSegment(payload)
			if err != nil {
				return fail(err)
			}
			if res := s.Consume(sr); res != nil {
				return *res, nil
			}
		case MsgStreamClose:
			cr, err := DecodeClose(payload)
			if err != nil {
				return fail(err)
			}
			return s.Close(cr), nil
		case attest.MsgError:
			return fail(fmt.Errorf("stream: prover error: %s", payload))
		default:
			return fail(fmt.Errorf("stream: unexpected message type %d", typ))
		}
	}
}
