package attest

import (
	"fmt"

	"lofat/internal/hashengine"
	"lofat/internal/monitor"
	"lofat/internal/wire"
)

// Wire format: all integers little-endian, length-prefixed slices. The
// encoding is canonical (a given value has exactly one encoding), which
// makes the signed payload deterministic.

func writePathCode(w *wire.Writer, c monitor.PathCode) {
	w.U64(c.Bits)
	w.U8(c.Len)
	w.Bool(c.Overflow)
}

func readPathCode(r *wire.Reader) monitor.PathCode {
	var c monitor.PathCode
	c.Bits = r.U64()
	c.Len = r.U8()
	c.Overflow = r.Bool()
	return c
}

func writeLoopRecord(w *wire.Writer, rec monitor.LoopRecord) {
	w.U32(rec.Entry)
	w.U32(rec.Exit)
	w.U64(rec.Iterations)
	w.U64(rec.IndirectOverflows)
	writePathCode(w, rec.Partial)
	w.U32(uint32(len(rec.Paths)))
	for _, p := range rec.Paths {
		writePathCode(w, p.Code)
		w.U64(p.Count)
	}
	w.U32(uint32(len(rec.IndirectTargets)))
	for _, t := range rec.IndirectTargets {
		w.U32(t)
	}
}

func readLoopRecord(r *wire.Reader) monitor.LoopRecord {
	var rec monitor.LoopRecord
	rec.Entry = r.U32()
	rec.Exit = r.U32()
	rec.Iterations = r.U64()
	rec.IndirectOverflows = r.U64()
	rec.Partial = readPathCode(r)
	nPaths := int(r.U32())
	if r.Err == nil && nPaths > len(r.Buf) { // defensive bound
		r.Fail("paths count")
		return rec
	}
	for i := 0; i < nPaths && r.Err == nil; i++ {
		code := readPathCode(r)
		count := r.U64()
		rec.Paths = append(rec.Paths, monitor.PathStat{Code: code, Count: count})
	}
	nTgts := int(r.U32())
	if r.Err == nil && nTgts > len(r.Buf) {
		r.Fail("targets count")
		return rec
	}
	for i := 0; i < nTgts && r.Err == nil; i++ {
		rec.IndirectTargets = append(rec.IndirectTargets, r.U32())
	}
	return rec
}

// SignedPayload is the byte string the prover signs: idS || A || L || N
// || exit code — the paper's P || N with the program identity bound in.
func SignedPayload(r *Report) []byte {
	var w wire.Writer
	w.Buf = make([]byte, 0, 256)
	w.Buf = append(w.Buf, r.Program[:]...)
	w.Buf = append(w.Buf, r.Hash[:]...)
	w.U32(uint32(len(r.Loops)))
	for _, rec := range r.Loops {
		writeLoopRecord(&w, rec)
	}
	w.Buf = append(w.Buf, r.Nonce[:]...)
	w.U32(r.ExitCode)
	return w.Buf
}

// EncodeReport serializes a report for transport.
func EncodeReport(r *Report) []byte {
	var w wire.Writer
	w.Buf = append(w.Buf, r.Program[:]...)
	w.Buf = append(w.Buf, r.Nonce[:]...)
	w.Buf = append(w.Buf, r.Hash[:]...)
	w.U32(r.ExitCode)
	w.U32(uint32(len(r.Loops)))
	for _, rec := range r.Loops {
		writeLoopRecord(&w, rec)
	}
	w.Bytes(r.Sig)
	return w.Buf
}

// DecodeReport parses a transported report.
func DecodeReport(b []byte) (*Report, error) {
	r := &wire.Reader{Prefix: "attest", Buf: b}
	var rep Report
	if len(b) < len(rep.Program)+len(rep.Nonce)+hashengine.DigestSize {
		return nil, fmt.Errorf("attest: report too short (%d bytes)", len(b))
	}
	copy(rep.Program[:], r.Raw(len(rep.Program), "program"))
	copy(rep.Nonce[:], r.Raw(len(rep.Nonce), "nonce"))
	copy(rep.Hash[:], r.Raw(len(rep.Hash), "hash"))
	rep.ExitCode = r.U32()
	n := int(r.U32())
	if r.Err == nil && n > len(b) {
		return nil, fmt.Errorf("attest: absurd loop count %d", n)
	}
	for i := 0; i < n && r.Err == nil; i++ {
		rep.Loops = append(rep.Loops, readLoopRecord(r))
	}
	rep.Sig = r.Bytes()
	if err := r.Finish("report"); err != nil {
		return nil, err
	}
	return &rep, nil
}

// EncodeChallenge serializes a challenge.
func EncodeChallenge(c *Challenge) []byte {
	var w wire.Writer
	w.Buf = append(w.Buf, c.Program[:]...)
	w.Buf = append(w.Buf, c.Nonce[:]...)
	w.U32(uint32(len(c.Input)))
	for _, v := range c.Input {
		w.U32(v)
	}
	return w.Buf
}

// DecodeChallenge parses a challenge.
func DecodeChallenge(b []byte) (*Challenge, error) {
	var c Challenge
	r := &wire.Reader{Prefix: "attest", Buf: b}
	if len(b) < len(c.Program)+len(c.Nonce)+4 {
		return nil, fmt.Errorf("attest: challenge too short (%d bytes)", len(b))
	}
	copy(c.Program[:], r.Raw(len(c.Program), "program"))
	copy(c.Nonce[:], r.Raw(len(c.Nonce), "nonce"))
	n := int(r.U32())
	if r.Err == nil && n > len(b) {
		return nil, fmt.Errorf("attest: absurd input count %d", n)
	}
	for i := 0; i < n && r.Err == nil; i++ {
		c.Input = append(c.Input, r.U32())
	}
	if err := r.Finish("challenge"); err != nil {
		return nil, err
	}
	return &c, nil
}

// MetadataSize reports the encoded size of L in bytes — the quantity §6.1
// says "depends on the number of loops executed, the number of different
// paths per loop, and the number of indirect branch targets".
func MetadataSize(loops []monitor.LoopRecord) int {
	var w wire.Writer
	for _, rec := range loops {
		writeLoopRecord(&w, rec)
	}
	return len(w.Buf)
}
