package stream

import (
	"fmt"
	"strconv"
	"time"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/hashengine"
	"lofat/internal/sig"
)

// Verifier is the incremental half of segmented attestation: it wraps
// an attest.Verifier (program image, CFG analysis, device key, nonce
// state, expectation caches) and opens sessions that consume segments
// as they arrive. Golden streaming runs are recorded per (input, N)
// through the wrapped verifier's two-layer expectation cache, so a
// fleet of devices on the same firmware simulates each streamed golden
// run once — and each streamed golden run also seeds the plain
// end-of-run expectation (the inner device's A and L are unchanged by
// streaming), so the session's final Verify never re-simulates.
type Verifier struct {
	av  *attest.Verifier
	cfg Config
}

// NewVerifier wraps an attest verifier for streamed sessions.
func NewVerifier(av *attest.Verifier, cfg Config) *Verifier {
	cfg.fill()
	return &Verifier{av: av, cfg: cfg}
}

// Inner exposes the wrapped attest verifier.
func (v *Verifier) Inner() *attest.Verifier { return v.av }

// expectedStream returns (computing and caching on first use) the
// golden streamed measurement for an input: per-segment checkpoint
// states plus the usual (A, L).
func (v *Verifier) expectedStream(input []uint32) (*core.Measurement, error) {
	kind := fmt.Sprintf("stream%d", v.cfg.SegmentEvents)
	m, err := v.av.ExpectedCustom(kind, input, func() (*core.Measurement, error) {
		meas, _, err := MeasureStream(v.av.Program(), v.av.DeviceConfig(), input, v.cfg.SegmentEvents, v.av.MaxInstructions)
		if err != nil {
			return nil, fmt.Errorf("stream: golden run: %w", err)
		}
		return &meas, nil
	})
	if err != nil {
		return nil, err
	}
	// The streamed golden measurement subsumes the end-of-run one.
	v.av.SeedExpectation(input, m)
	return m, nil
}

// Precompute warms the expectation caches for a set of inputs (the
// fleet sweep path: one streamed golden run up front, every device
// verification a cache hit).
func (v *Verifier) Precompute(inputs [][]uint32) error {
	for _, in := range inputs {
		if _, err := v.expectedStream(in); err != nil {
			return err
		}
	}
	return nil
}

// Session is one streamed attestation in progress. It is not safe for
// concurrent use; drive it from the goroutine reading the transport.
type Session struct {
	v        *Verifier
	ch       attest.Challenge
	exp      *core.Measurement
	chain    [hashengine.DigestSize]byte
	next     uint32 // next expected segment index
	consumed uint32 // segment reports consumed (incl. a divergent one)
	matched  uint64 // control-flow events matched against golden
	// seen is the edge history of the matched prefix, built lazily by
	// the forensic pass (the honest fast path never needs it).
	seen map[hashengine.Pair]bool
	done bool
}

// Open starts a streamed session for an input: it draws a fresh
// challenge nonce, ensures the golden streamed expectation exists, and
// returns the session plus the open request to transmit.
func (v *Verifier) Open(input []uint32) (*Session, *OpenRequest, error) {
	ch, err := v.av.NewChallenge(input)
	if err != nil {
		return nil, nil, err
	}
	exp, err := v.expectedStream(ch.Input)
	if err != nil {
		v.av.ConsumeNonce(ch.Nonce)
		return nil, nil, err
	}
	s := &Session{v: v, ch: ch, exp: exp}
	open := &OpenRequest{
		Program:       ch.Program,
		Nonce:         ch.Nonce,
		Input:         ch.Input,
		SegmentEvents: uint32(v.cfg.SegmentEvents),
	}
	return s, open, nil
}

// ExpectedSegments reports how many segments the golden run produced.
func (s *Session) ExpectedSegments() int { return len(s.exp.Segments) }

// Done reports whether the session reached a terminal outcome.
func (s *Session) Done() bool { return s.done }

// Abort terminates the session without a verdict (transport failure);
// the nonce is retired so the issued set stays bounded.
func (s *Session) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.v.av.ConsumeNonce(s.ch.Nonce)
}

// terminal marks the session done, retires the nonce, and builds the
// rejection result. earlyAbort distinguishes mid-stream rejections
// (the device is still running and will be cut off) from rejections at
// close time (the run already ended).
func (s *Session) terminal(earlyAbort bool, class attest.Classification, findings ...string) *Result {
	s.done = true
	s.v.av.ConsumeNonce(s.ch.Nonce)
	return &Result{
		Result: attest.Result{
			Accepted: false,
			Class:    class,
			Findings: findings,
			Expected: s.exp,
		},
		Segments:   s.consumed,
		EarlyAbort: earlyAbort,
	}
}

// Consume checks one segment report. A nil return means the segment
// matched the golden checkpoint: keep streaming. A non-nil Result is
// the session's terminal verdict — the first divergent (or malformed)
// segment rejects immediately, while the device may still be running:
// callers drop the transport to cut it off (see RequestStream).
//
// With observability configured (Config.Trace / Config.SegmentHist)
// each consume is timed and recorded; disabled, the wrapper is two
// branches in front of the verification work.
func (s *Session) Consume(sr *SegmentReport) *Result {
	hist, tr := s.v.cfg.SegmentHist, s.v.cfg.Trace
	if hist == nil && !tr.Enabled() {
		return s.consume(sr)
	}
	sp := tr.Start("segment", "stream")
	start := time.Now()
	res := s.consume(sr)
	hist.ObserveSince(start)
	if tr.Enabled() {
		sp = sp.Arg("index", strconv.FormatUint(uint64(sr.Index), 10))
		switch {
		case res == nil:
			sp = sp.Arg("verdict", "matched")
		case res.EarlyAbort:
			sp = sp.Arg("verdict", "early-abort")
		default:
			sp = sp.Arg("verdict", res.Class.String())
		}
	}
	sp.End()
	return res
}

func (s *Session) consume(sr *SegmentReport) *Result {
	if s.done {
		return &Result{
			Result:   attest.Result{Accepted: false, Class: attest.ClassProtocol, Findings: []string{"session already terminated"}},
			Segments: s.consumed,
		}
	}
	s.consumed++

	// Protocol checks: right program, nonce echo, stream order.
	if sr.Program != s.ch.Program {
		return s.terminal(true, attest.ClassProtocol, fmt.Sprintf("segment for program %v, expected %v", sr.Program, s.ch.Program))
	}
	if sr.Nonce != s.ch.Nonce {
		return s.terminal(true, attest.ClassProtocol, "segment nonce mismatch (replay?)")
	}
	if sr.Index != s.next {
		return s.terminal(true, attest.ClassProtocol, fmt.Sprintf("segment %d out of order, expected %d", sr.Index, s.next))
	}
	if int(sr.Events) != len(sr.Edges) {
		return s.terminal(true, attest.ClassProtocol, fmt.Sprintf("segment %d claims %d events but carries %d edges", sr.Index, sr.Events, len(sr.Edges)))
	}

	// Authenticity: per-segment signature over the chained state.
	if err := sig.Verify(s.v.av.PublicKey(), SegmentPayload(sr), sr.Sig); err != nil {
		return s.terminal(true, attest.ClassSignature, fmt.Sprintf("segment %d: %v", sr.Index, err))
	}

	// Fast path: the signed chain value equals the golden checkpoint.
	// Chain equality pins the entire edge-stream prefix to the golden
	// run (the chain is a running hash over every edge so far), so no
	// per-edge comparison — and no chain recomputation — is needed.
	if int(sr.Index) < len(s.exp.Segments) {
		g := s.exp.Segments[sr.Index]
		if sr.Chain == g.Chain && sr.Events == g.Events {
			s.chain = sr.Chain
			s.next++
			s.matched += uint64(g.Events)
			return nil
		}
	}

	// Divergence. Authenticate the reported edge window through the
	// chain before doing forensics on it.
	if hashengine.ChainPairs(s.chain, sr.Edges) != sr.Chain {
		return s.terminal(true, attest.ClassProtocol, fmt.Sprintf("segment %d: edges do not hash to the reported chain", sr.Index))
	}
	return s.diverge(sr)
}

// Close checks the final message of an honest stream: every golden
// segment consumed, the close framing consistent with the session's
// accumulated (signed) state, then the classic end-of-run verification
// of the embedded report — which consumes the challenge nonce.
func (s *Session) Close(cr *CloseReport) Result {
	if s.done {
		return Result{
			Result:   attest.Result{Accepted: false, Class: attest.ClassProtocol, Findings: []string{"session already terminated"}},
			Segments: s.consumed,
		}
	}
	if int(s.next) != len(s.exp.Segments) {
		// The reported stream is a strict prefix of the golden one:
		// the run ended before the expected path completed.
		res := s.earlyEnd()
		return *res
	}
	if cr.Segments != s.next {
		return *s.terminal(false, attest.ClassProtocol, fmt.Sprintf("close claims %d segments, session verified %d", cr.Segments, s.next))
	}
	if cr.Chain != s.chain {
		return *s.terminal(false, attest.ClassProtocol, "close chain does not match the verified stream")
	}
	s.done = true
	res := s.v.av.Verify(s.ch, &cr.Report)
	return Result{Result: res, Segments: s.consumed}
}
