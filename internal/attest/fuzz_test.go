package attest_test

import (
	"bytes"
	"testing"

	. "lofat/internal/attest"
	"lofat/internal/workloads"
)

// roundEncodings returns the encoded challenge and report of one real
// round per workload: the seed corpus of the decoder fuzz targets.
func roundEncodings(f *testing.F) (challenges, reports [][]byte) {
	for _, w := range workloads.All() {
		p, v := rig(f, w)
		ch, err := v.NewChallenge(w.Input)
		if err != nil {
			f.Fatal(err)
		}
		rep, err := p.Attest(ch)
		if err != nil {
			f.Fatal(err)
		}
		challenges = append(challenges, EncodeChallenge(&ch))
		reports = append(reports, EncodeReport(rep))
	}
	return challenges, reports
}

// FuzzDecodeReport: DecodeReport faces the network, so it must never
// panic, and any bytes it accepts must re-encode to exactly themselves
// (the encoding is canonical, so a decoded report has one byte string).
func FuzzDecodeReport(f *testing.F) {
	_, reports := roundEncodings(f)
	for _, b := range reports {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReport(b)
		if err != nil {
			return
		}
		if enc := EncodeReport(rep); !bytes.Equal(enc, b) {
			t.Fatalf("accepted report re-encodes differently:\n in %x\nout %x", b, enc)
		}
	})
}

// FuzzDecodeChallenge is FuzzDecodeReport's twin for the challenge the
// prover parses.
func FuzzDecodeChallenge(f *testing.F) {
	challenges, _ := roundEncodings(f)
	for _, b := range challenges {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ch, err := DecodeChallenge(b)
		if err != nil {
			return
		}
		if enc := EncodeChallenge(ch); !bytes.Equal(enc, b) {
			t.Fatalf("accepted challenge re-encodes differently:\n in %x\nout %x", b, enc)
		}
	})
}

// Flipping any single bit of a valid encoded report must never produce
// an ACCEPTED verification (decode error, signature failure, or mismatch
// — anything but acceptance). Every bit is tried, each against a fresh
// challenge and report so that no rejection is merely a spent nonce.
func TestBitflippedReportsNeverAccepted(t *testing.T) {
	p, v := rig(t, workloads.SyringePump())
	in := workloads.SyringePump().Input
	round := func() (Challenge, []byte) {
		ch, err := v.NewChallenge(in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Attest(ch)
		if err != nil {
			t.Fatal(err)
		}
		return ch, EncodeReport(rep)
	}
	_, enc := round()
	for bit := 0; bit < 8*len(enc); bit++ {
		ch, enc := round()
		enc[bit/8] ^= 1 << (bit % 8)
		dec, err := DecodeReport(enc)
		if err != nil {
			continue // malformed: rejected at the parser, fine
		}
		if res := v.Verify(ch, dec); res.Accepted {
			t.Fatalf("report with bit %d of byte %d flipped ACCEPTED", bit%8, bit/8)
		}
	}
}

// Truncations of a valid report must be rejected cleanly.
func TestTruncatedReportsRejected(t *testing.T) {
	p, v := rig(t, workloads.SyringePump())
	ch, _ := v.NewChallenge(workloads.SyringePump().Input)
	rep, err := p.Attest(ch)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeReport(rep)
	for n := 0; n < len(enc); n += 7 {
		if _, err := DecodeReport(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}
