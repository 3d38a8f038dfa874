package stream

import (
	"fmt"

	"lofat/internal/attest"
	"lofat/internal/hashengine"
	"lofat/internal/wire"
)

// Wire format: the attest conventions — little-endian integers,
// length-prefixed slices, canonical encodings (one encoding per value)
// so signed payloads are deterministic. Messages ride the attest frame
// transport on the type bytes below (attest owns 1-15).
const (
	// MsgStreamOpen carries an OpenRequest (verifier → prover).
	MsgStreamOpen byte = 16
	// MsgSegment carries a SegmentReport (prover → verifier).
	MsgSegment byte = 17
	// MsgStreamClose carries a CloseReport (prover → verifier).
	MsgStreamClose byte = 18
)

// OpenRequest opens a streamed attestation session: the classic
// challenge (program identity, input i, nonce N) plus the checkpoint
// window the prover must seal segments at.
type OpenRequest struct {
	Program attest.ProgramID
	Nonce   attest.Nonce
	Input   []uint32
	// SegmentEvents is the checkpoint window N requested by the
	// verifier.
	SegmentEvents uint32
}

// SegmentReport is one chained sub-measurement: checkpoint k of the
// streamed run. Chain commits to the full edge-stream prefix; Edges is
// the raw window, authenticated through Chain (the verifier recomputes
// the link before trusting it). Sig covers SegmentPayload with the
// device key.
type SegmentReport struct {
	Program attest.ProgramID
	Nonce   attest.Nonce
	Index   uint32
	Events  uint32
	Chain   [hashengine.DigestSize]byte
	Edges   []hashengine.Pair
	Sig     []byte
}

// CloseReport ends a streamed session: the classic signed end-of-run
// report (A, L, exit code — verified exactly like a Figure 2 report)
// plus the stream framing the verifier cross-checks against its own
// accumulated state. Segments and Chain need no extra signature: every
// segment was individually signed, so the verifier's accumulated chain
// is authenticated already and the close merely has to match it.
type CloseReport struct {
	Report   attest.Report
	Segments uint32
	Chain    [hashengine.DigestSize]byte
}

// EncodeOpen serializes an open request.
func EncodeOpen(o *OpenRequest) []byte {
	var w wire.Writer
	w.Buf = append(w.Buf, o.Program[:]...)
	w.Buf = append(w.Buf, o.Nonce[:]...)
	w.U32(o.SegmentEvents)
	w.U32(uint32(len(o.Input)))
	for _, v := range o.Input {
		w.U32(v)
	}
	return w.Buf
}

// DecodeOpen parses an open request.
func DecodeOpen(b []byte) (*OpenRequest, error) {
	var o OpenRequest
	r := &wire.Reader{Prefix: "stream", Buf: b}
	copy(o.Program[:], r.Raw(len(o.Program), "program"))
	copy(o.Nonce[:], r.Raw(len(o.Nonce), "nonce"))
	o.SegmentEvents = r.U32()
	n := int(r.U32())
	if r.Err == nil && n > (len(b)-r.Off)/4 {
		return nil, fmt.Errorf("stream: absurd input count %d", n)
	}
	for i := 0; i < n && r.Err == nil; i++ {
		o.Input = append(o.Input, r.U32())
	}
	if err := r.Finish("open request"); err != nil {
		return nil, err
	}
	return &o, nil
}

// segmentDomain prefixes every signed segment payload: the device key
// also signs end-of-run reports (attest.SignedPayload), and a fixed
// domain tag keeps the two signed message classes disjoint by
// construction rather than by accidental byte-layout differences.
const segmentDomain = "lofat-stream-segment-v1\x00"

// SegmentPayload is the byte string the prover signs per segment:
// domain || idS || N || index || events || chain. Edges are not
// covered directly — the chain commits to them, and the verifier
// recomputes the chain link from the received edges before trusting
// either.
func SegmentPayload(s *SegmentReport) []byte {
	var w wire.Writer
	w.Buf = make([]byte, 0, len(segmentDomain)+2*32+8+hashengine.DigestSize)
	w.Buf = append(w.Buf, segmentDomain...)
	w.Buf = append(w.Buf, s.Program[:]...)
	w.Buf = append(w.Buf, s.Nonce[:]...)
	w.U32(s.Index)
	w.U32(s.Events)
	w.Buf = append(w.Buf, s.Chain[:]...)
	return w.Buf
}

// EncodeSegment serializes a segment report.
func EncodeSegment(s *SegmentReport) []byte {
	var w wire.Writer
	w.Buf = make([]byte, 0, 2*32+8+hashengine.DigestSize+8*len(s.Edges)+len(s.Sig)+8)
	w.Buf = append(w.Buf, s.Program[:]...)
	w.Buf = append(w.Buf, s.Nonce[:]...)
	w.U32(s.Index)
	w.U32(s.Events)
	w.Buf = append(w.Buf, s.Chain[:]...)
	w.U32(uint32(len(s.Edges)))
	for _, p := range s.Edges {
		w.U32(p.Src)
		w.U32(p.Dest)
	}
	w.Bytes(s.Sig)
	return w.Buf
}

// DecodeSegment parses a segment report.
func DecodeSegment(b []byte) (*SegmentReport, error) {
	var s SegmentReport
	r := &wire.Reader{Prefix: "stream", Buf: b}
	copy(s.Program[:], r.Raw(len(s.Program), "program"))
	copy(s.Nonce[:], r.Raw(len(s.Nonce), "nonce"))
	s.Index = r.U32()
	s.Events = r.U32()
	copy(s.Chain[:], r.Raw(len(s.Chain), "chain"))
	n := int(r.U32())
	if r.Err == nil && n > (len(b)-r.Off)/8 {
		return nil, fmt.Errorf("stream: absurd edge count %d", n)
	}
	for i := 0; i < n && r.Err == nil; i++ {
		s.Edges = append(s.Edges, hashengine.Pair{Src: r.U32(), Dest: r.U32()})
	}
	s.Sig = r.Bytes()
	if err := r.Finish("segment report"); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeClose serializes a close report; the embedded end-of-run
// report reuses the attest codec.
func EncodeClose(c *CloseReport) []byte {
	var w wire.Writer
	w.U32(c.Segments)
	w.Buf = append(w.Buf, c.Chain[:]...)
	w.Bytes(attest.EncodeReport(&c.Report))
	return w.Buf
}

// DecodeClose parses a close report.
func DecodeClose(b []byte) (*CloseReport, error) {
	var c CloseReport
	r := &wire.Reader{Prefix: "stream", Buf: b}
	c.Segments = r.U32()
	copy(c.Chain[:], r.Raw(len(c.Chain), "chain"))
	enc := r.Bytes()
	if err := r.Finish("close report"); err != nil {
		return nil, err
	}
	rep, err := attest.DecodeReport(enc)
	if err != nil {
		return nil, err
	}
	c.Report = *rep
	return &c, nil
}
