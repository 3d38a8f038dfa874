// Package wire holds the one byte-level reader and writer behind every
// binary codec in the repository (attest reports and challenges, stream
// segments, the federation's WAL and snapshots): little-endian integers
// and u32-length-prefixed byte strings. The encoding is canonical — a
// value has exactly one encoding — which keeps signed payloads and
// checksummed images deterministic.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Writer appends to Buf. Fixed-size fields (digests, magic strings) are
// appended to Buf directly by the caller.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)   { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader consumes Buf from Off. The first short read sets Err, naming
// the field and the offset under the caller's Prefix; every later read
// returns zero, so a decoder checks Err once, at the end or before
// trusting a count.
type Reader struct {
	Prefix string
	Buf    []byte
	Off    int
	Err    error
}

// Fail records that field what, at the current offset, needs more bytes
// than Buf holds; decoders also call it on a count no input could back.
func (r *Reader) Fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%s: decode: truncated %s at offset %d", r.Prefix, what, r.Off)
	}
}

// Raw returns the next n bytes without copying, or nil on a short read.
func (r *Reader) Raw(n int, what string) []byte {
	if r.Err != nil || n < 0 || n > len(r.Buf)-r.Off {
		r.Fail(what)
		return nil
	}
	v := r.Buf[r.Off : r.Off+n]
	r.Off += n
	return v
}

func (r *Reader) U8() uint8 {
	if b := r.Raw(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Raw(2, "u16"); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Raw(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Raw(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool reads a 0 or 1 byte; any other would be a second encoding of true.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("bool")
	}
	return v == 1
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte {
	src := r.Raw(int(r.U32()), "bytes")
	if r.Err != nil {
		return nil
	}
	v := make([]byte, len(src))
	copy(v, src)
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Raw(int(r.U32()), "string")) }

// Finish returns the first read error, or an error if bytes remain.
func (r *Reader) Finish(what string) error {
	if r.Err != nil {
		return r.Err
	}
	if r.Off != len(r.Buf) {
		return fmt.Errorf("%s: %d trailing bytes in %s", r.Prefix, len(r.Buf)-r.Off, what)
	}
	return nil
}
