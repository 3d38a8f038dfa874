package attest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Registry hosts multiple attestable programs on one prover device —
// an embedded system running several attested tasks, each bound to its
// installed binary by program ID. Challenges are routed by the ID in
// the challenge message.
type Registry struct {
	mu sync.RWMutex
	//lofat:guardedby mu
	provers map[ProgramID]*Prover
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{provers: make(map[ProgramID]*Prover)}
}

// Register adds a prover; re-registering the same program replaces it.
func (r *Registry) Register(p *Prover) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.provers[p.ProgramID()] = p
}

// Lookup returns the prover for a program ID.
func (r *Registry) Lookup(id ProgramID) (*Prover, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.provers[id]
	return p, ok
}

// Len reports the number of registered programs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.provers)
}

// ServeConn handles challenge frames on one connection until EOF,
// routing each to the prover registered for its program ID. Unknown
// programs get an error frame; the connection stays usable.
func (r *Registry) ServeConn(conn io.ReadWriter) error {
	for {
		typ, payload, err := ReadFrame(conn)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if typ != MsgChallenge {
			return fmt.Errorf("attest: registry expected challenge, got type %d", typ)
		}
		if err := HandleChallenge(conn, payload, r.Lookup); err != nil {
			return err
		}
	}
}

// HandleChallenge processes one received challenge payload against a
// prover lookup, writing the report (or error frame) back. It is the
// shared per-frame body of every challenge-serving connection loop —
// the attest Registry above and protocol extensions multiplexing
// additional frame types on the same connection (internal/stream).
// Prover-side failures are answered with an error frame and a nil
// return (the connection stays usable); only transport and decode
// errors are returned.
func HandleChallenge(conn io.ReadWriter, payload []byte, lookup func(ProgramID) (*Prover, bool)) error {
	ch, err := DecodeChallenge(payload)
	if err != nil {
		return err
	}
	p, ok := lookup(ch.Program)
	if !ok {
		return WriteFrame(conn, MsgError, []byte("unknown program"))
	}
	rep, err := p.Attest(*ch)
	if err != nil {
		return WriteFrame(conn, MsgError, []byte("attestation failed"))
	}
	return WriteFrame(conn, MsgReport, EncodeReport(rep))
}

// Server is a persistent TCP attestation service over a per-connection
// handler — by default a Registry's challenge loop, but protocol
// extensions (internal/stream) reuse the same listener plumbing with
// their own handlers.
type Server struct {
	Registry *Registry

	// IdleTimeout, when positive, bounds each section of every received
	// frame (the 5-byte header, then the payload) and each write on an
	// accepted connection. The deadline re-arms only at section
	// boundaries, never mid-section, so a peer that goes silent — or
	// trickles one byte per deadline to stretch it (slowloris) —
	// cannot pin a handler goroutine beyond two windows per frame. Set
	// before Listen.
	IdleTimeout time.Duration

	handler func(io.ReadWriter) error
	mu      sync.Mutex
	//lofat:guardedby mu
	listener net.Listener
	wg       sync.WaitGroup
	//lofat:guardedby mu
	closed bool
}

// NewServer wraps a registry in a TCP server (not yet listening).
func NewServer(reg *Registry) *Server {
	return &Server{Registry: reg, handler: reg.ServeConn}
}

// NewServerFunc builds a TCP server around an arbitrary per-connection
// handler speaking the frame transport.
func NewServerFunc(handle func(io.ReadWriter) error) *Server {
	return &Server{handler: handle}
}

// ErrServerClosed is returned by Listen on a server that has been
// Closed: a closed server stays closed rather than silently rebinding.
var ErrServerClosed = errors.New("attest: server is closed")

// Listen binds the address and starts accepting connections in the
// background, one goroutine per connection. It returns the bound
// address (useful with ":0"). After Close it returns ErrServerClosed;
// a server listens on at most one address, so a second Listen on a
// live server is an error rather than a silent listener leak.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.listener != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("attest: server already listening on %s", s.listener.Addr())
	}
	s.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("attest: server: %w", err)
	}
	s.mu.Lock()
	switch {
	case s.closed: // Close raced with the bind: undo it
		s.mu.Unlock()
		ln.Close()
		return nil, ErrServerClosed
	case s.listener != nil: // concurrent Listen won the race
		other := s.listener.Addr()
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("attest: server already listening on %s", other)
	}
	s.listener = ln
	// The accept loop registers on wg before the lock drops: a
	// concurrent Close must observe it and wait for it to exit.
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				var rw io.ReadWriter = conn
				if d := s.IdleTimeout; d > 0 {
					rw = &idleConn{conn: conn, timeout: d}
				}
				_ = s.handler(rw)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Close stops accepting and waits for in-flight exchanges.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.listener
	s.closed = true
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// idleConn bounds one slow or stalled peer by the server's IdleTimeout.
// Reads arm one deadline per frame section (header, then payload) by
// tracking the wire format, so a byte-trickling client cannot re-arm
// its way past the budget; writes arm a deadline per call.
type idleConn struct {
	conn    net.Conn
	timeout time.Duration

	hdr       [5]byte // header bytes of the frame being received
	hdrN      int
	remaining uint64 // payload bytes outstanding for the current frame
	armed     bool
}

// Read delivers bytes under the per-section deadline.
//
//lofat:rawconn idleConn IS the server-side deadline wrapper; every Read arms a deadline first
func (c *idleConn) Read(p []byte) (int, error) {
	if !c.armed {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, err
		}
		c.armed = true
	}
	n, err := c.conn.Read(p)
	c.consume(p[:n])
	return n, err
}

// consume advances the frame parser over bytes the peer delivered; at
// each section boundary (header complete, payload complete) the next
// Read re-arms a fresh deadline — and only there.
func (c *idleConn) consume(b []byte) {
	for len(b) > 0 {
		if c.hdrN < len(c.hdr) {
			k := len(c.hdr) - c.hdrN
			if k > len(b) {
				k = len(b)
			}
			copy(c.hdr[c.hdrN:], b[:k])
			c.hdrN += k
			b = b[k:]
			if c.hdrN == len(c.hdr) {
				c.remaining = uint64(binary.LittleEndian.Uint32(c.hdr[1:]))
				c.armed = false
				if c.remaining == 0 {
					c.hdrN = 0
				}
			}
			continue
		}
		k := uint64(len(b))
		if k > c.remaining {
			k = c.remaining
		}
		c.remaining -= k
		b = b[k:]
		if c.remaining == 0 {
			c.hdrN = 0
			c.armed = false
		}
	}
}

// Write sends bytes under a per-call deadline.
//
//lofat:rawconn idleConn IS the server-side deadline wrapper; every Write arms a deadline first
func (c *idleConn) Write(p []byte) (int, error) {
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.conn.Write(p)
}
