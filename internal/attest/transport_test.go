package attest_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	. "lofat/internal/attest"
	"lofat/internal/obs"
)

// callCountingWriter records each Write it receives.
type callCountingWriter struct {
	calls  int
	frames [][]byte
}

func (w *callCountingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.frames = append(w.frames, append([]byte(nil), p...))
	return len(p), nil
}

// failingWriter errors from the Nth call on.
type failingWriter struct {
	calls   int
	failAt  int
	written []byte
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.failAt {
		return 0, fmt.Errorf("boom")
	}
	w.written = append(w.written, p...)
	return len(p), nil
}

// TestWriteFrameSingleWrite pins the torn-frame fix: header and payload
// must leave in ONE Write, so an error (or a concurrent writer) cannot
// land between them and leave a partial frame on the wire.
func TestWriteFrameSingleWrite(t *testing.T) {
	w := &callCountingWriter{}
	payload := []byte("payload-bytes")
	if err := WriteFrame(w, MsgReport, payload); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1 (torn-frame hazard)", w.calls)
	}
	frame := w.frames[0]
	if len(frame) != 5+len(payload) {
		t.Fatalf("frame length %d, want %d", len(frame), 5+len(payload))
	}
	if frame[0] != MsgReport || string(frame[5:]) != string(payload) {
		t.Fatalf("frame content wrong: %x", frame)
	}

	// A writer that fails on its first call leaves NOTHING on the wire:
	// either the whole frame lands or none of it.
	fw := &failingWriter{failAt: 1}
	err := WriteFrame(fw, MsgChallenge, payload)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("failed write returned %T (%v), want *TransportError", err, err)
	}
	if len(fw.written) != 0 {
		t.Fatalf("failed WriteFrame left %d bytes on the wire", len(fw.written))
	}
}

// TestReadFrameHostileHeader: a header claiming the 16 MiB limit and
// then hanging up fails as a TransportError without the reader
// allocating what the header claimed, and a legitimate frame larger than
// the first allocation still arrives intact.
func TestReadFrameHostileHeader(t *testing.T) {
	hostile := []byte{MsgReport, 0, 0, 0, 1} // payload length 1<<24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("truncated 16 MiB frame returned %T (%v), want *TransportError", err, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 5-byte header made ReadFrame allocate %d bytes", got)
	}

	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgReport, big); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgReport || !bytes.Equal(payload, big) {
		t.Fatalf("%d-byte frame: type %d, %d bytes, err %v", len(big), typ, len(payload), err)
	}
}

// TestRequestTimeoutStalledProver checks the per-phase read deadline: a
// prover that swallows the challenge and never answers fails the
// exchange with a timeout-classed TransportError in bounded time, and
// the challenge nonce is retired.
func TestRequestTimeoutStalledProver(t *testing.T) {
	_, verifiers, ws := multiRig(t, "syringe-pump")
	v := verifiers["syringe-pump"]

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		// Read the challenge, then go silent forever.
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	start := time.Now()
	_, err := RequestAttestation(client, v, ws["syringe-pump"].Input, Timeouts{Read: 100 * time.Millisecond}, obs.Scope{})
	elapsed := time.Since(start)
	var te *TransportError
	if !errors.As(err, &te) || !te.Timeout() {
		t.Fatalf("stalled exchange returned %v, want timeout TransportError", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled exchange took %v despite 100ms read deadline", elapsed)
	}
	if n := v.PendingChallenges(); n != 0 {
		t.Fatalf("timed-out exchange leaked %d nonces", n)
	}
}

// TestServerIdleTimeout checks that a peer which connects and stalls
// mid-frame cannot pin a server handler: the idle deadline fires, the
// handler exits and the connection is closed under the client.
func TestServerIdleTimeout(t *testing.T) {
	reg, _, _ := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	srv.IdleTimeout = 100 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two bytes of a five-byte header, then silence: a mid-frame stall.
	if _, err := conn.Write([]byte{MsgChallenge, 0x01}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the stalled connection alive")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server held the stalled connection for %v", elapsed)
	}
}

// TestServerIdleTimeoutTrickler checks the slowloris case: a client
// that delivers one byte per interval — each arriving well inside the
// idle timeout — must NOT keep extending its budget; the deadline only
// re-arms at frame-section boundaries, so the stretched header blows
// the window and the handler drops the connection.
func TestServerIdleTimeoutTrickler(t *testing.T) {
	reg, _, _ := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	srv.IdleTimeout = 200 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header claims a 1KB payload; every byte lands 80ms apart — far
	// inside the 200ms timeout individually, far beyond it in total.
	frame := []byte{MsgChallenge, 0x00, 0x04, 0x00, 0x00}
	start := time.Now()
	dropped := false
	for i := 0; i < 30 && !dropped; i++ {
		b := byte(0)
		if i < len(frame) {
			b = frame[i]
		}
		if _, err := conn.Write([]byte{b}); err != nil {
			dropped = true
			break
		}
		time.Sleep(80 * time.Millisecond)
		conn.SetReadDeadline(time.Now().Add(time.Millisecond))
		if _, err := conn.Read(make([]byte, 1)); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("trickling client kept the connection alive past 2.4s of 200ms idle windows")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("server took %v to drop the trickler", elapsed)
	}
}

// TestTimeoutsDisarmKeepsConnReusable checks that deadlines armed for
// one exchange do not poison a later exchange on the same connection
// that runs without timeouts.
func TestTimeoutsDisarmKeepsConnReusable(t *testing.T) {
	reg, verifiers, ws := multiRig(t, "syringe-pump")
	srv := NewServer(reg)
	// An idle timeout on the server also exercises the frame-aware
	// deadline parser across multiple frames on one connection.
	srv.IdleTimeout = 5 * time.Second
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	v := verifiers["syringe-pump"]
	input := ws["syringe-pump"].Input
	if res, err := RequestAttestation(conn, v, input, Timeouts{Read: 5 * time.Second, Write: 5 * time.Second}, obs.Scope{}); err != nil || !res.Accepted {
		t.Fatalf("timed exchange: %v %v", res, err)
	}
	// Were the deadline left armed, this follow-up exchange would fail
	// once it expired.
	time.Sleep(10 * time.Millisecond)
	if res, err := RequestAttestation(conn, v, input, Timeouts{}, obs.Scope{}); err != nil || !res.Accepted {
		t.Fatalf("follow-up exchange after disarm: %v %v", res, err)
	}
	// Negative timeouts reach here unclamped from fleet.Config and
	// fed.Config ("a negative value disables that deadline"): they must
	// arm and clear nothing.
	spy := &deadlineSpy{Conn: conn}
	if res, err := RequestAttestation(spy, v, input, Timeouts{Read: -1, Write: -time.Second}, obs.Scope{}); err != nil || !res.Accepted {
		t.Fatalf("exchange with negative timeouts: %v %v", res, err)
	}
	if spy.calls != 0 {
		t.Fatalf("negative timeouts touched the conn's deadlines %d times", spy.calls)
	}
}

// deadlineSpy counts deadline changes on the conn it wraps.
type deadlineSpy struct {
	net.Conn
	calls int
}

func (c *deadlineSpy) SetReadDeadline(t time.Time) error {
	c.calls++
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineSpy) SetWriteDeadline(t time.Time) error {
	c.calls++
	return c.Conn.SetWriteDeadline(t)
}
