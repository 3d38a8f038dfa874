package stream_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"lofat/internal/hashengine"
	"lofat/internal/stream"
	"lofat/internal/workloads"
)

// FuzzStreamDecode feeds the same bytes to the three decoders that face
// the network, Open, Segment and Close — the streamed analogue of
// internal/attest's FuzzDecodeReport. None may panic, and whatever one
// accepts must re-encode to exactly those bytes. The seeds are each
// workload's open request, first and last segment and close report from
// a real streamed round, plus the empty input.
func FuzzStreamDecode(f *testing.F) {
	for _, w := range workloads.All() {
		p, v := rig(f, w, 16)
		s, open, err := v.Open(w.Input)
		if err != nil {
			f.Fatal(err)
		}
		var segs [][]byte
		cr, err := p.Stream(*open, func(sr *stream.SegmentReport) error {
			segs = append(segs, stream.EncodeSegment(sr))
			return nil
		})
		s.Abort()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream.EncodeOpen(open))
		if len(segs) > 0 {
			f.Add(segs[0])
			f.Add(segs[len(segs)-1])
		}
		f.Add(stream.EncodeClose(cr))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		if o, err := stream.DecodeOpen(b); err == nil && !bytes.Equal(stream.EncodeOpen(o), b) {
			t.Fatalf("accepted open request re-encodes differently: %x", b)
		}
		if sr, err := stream.DecodeSegment(b); err == nil && !bytes.Equal(stream.EncodeSegment(sr), b) {
			t.Fatalf("accepted segment re-encodes differently: %x", b)
		}
		if cr, err := stream.DecodeClose(b); err == nil && !bytes.Equal(stream.EncodeClose(cr), b) {
			t.Fatalf("accepted close report re-encodes differently: %x", b)
		}
	})
}

// Randomly generated segment reports must round-trip exactly through
// the canonical encoding.
func TestSegmentCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sr := &stream.SegmentReport{
			Index:  rng.Uint32(),
			Events: rng.Uint32(),
		}
		rng.Read(sr.Program[:])
		rng.Read(sr.Nonce[:])
		rng.Read(sr.Chain[:])
		for i := rng.Intn(20); i > 0; i-- {
			sr.Edges = append(sr.Edges, hashengine.Pair{Src: rng.Uint32(), Dest: rng.Uint32()})
		}
		sr.Sig = make([]byte, rng.Intn(80))
		rng.Read(sr.Sig)

		enc := stream.EncodeSegment(sr)
		dec, err := stream.DecodeSegment(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(sr, dec) {
			t.Fatalf("trial %d: round trip mismatch:\n%+v\n%+v", trial, sr, dec)
		}
		if !bytes.Equal(stream.EncodeSegment(dec), enc) {
			t.Fatalf("trial %d: re-encoding not canonical", trial)
		}
	}
}

// Open requests round-trip, and every truncation of every message type
// is rejected cleanly (no panic, no silent success).
func TestStreamCodecTruncationRobustness(t *testing.T) {
	w := workloads.SyringePump()
	p, v := rig(t, w, 16)
	s, open, err := v.Open(w.Input)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	encOpen := stream.EncodeOpen(open)
	gotOpen, err := stream.DecodeOpen(encOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(open, gotOpen) {
		t.Fatalf("open round trip mismatch:\n%+v\n%+v", open, gotOpen)
	}

	var encSeg []byte
	cr, err := p.Stream(*open, func(sr *stream.SegmentReport) error {
		if encSeg == nil {
			encSeg = stream.EncodeSegment(sr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	encClose := stream.EncodeClose(cr)
	gotClose, err := stream.DecodeClose(encClose)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, gotClose) {
		t.Fatal("close round trip mismatch")
	}

	for name, tc := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"open":    {encOpen, func(b []byte) error { _, err := stream.DecodeOpen(b); return err }},
		"segment": {encSeg, func(b []byte) error { _, err := stream.DecodeSegment(b); return err }},
		"close":   {encClose, func(b []byte) error { _, err := stream.DecodeClose(b); return err }},
	} {
		if len(tc.enc) == 0 {
			t.Fatalf("%s: empty encoding", name)
		}
		for n := 0; n < len(tc.enc); n++ {
			if err := tc.decode(tc.enc[:n]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded successfully", name, n)
			}
		}
		if err := tc.decode(append(append([]byte(nil), tc.enc...), 0)); err == nil {
			t.Errorf("%s with a trailing byte decoded successfully", name)
		}
	}
}
