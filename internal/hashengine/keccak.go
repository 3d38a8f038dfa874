// Package hashengine implements the LO-FAT measurement engine of §5.3: a
// SHA-3 512 sponge (Keccak-f[1600], 576-bit rate) together with the
// paper's hardware timing model — the engine absorbs one 64-bit
// (Src,Dest) pair per clock cycle into its padding buffer for 9 cycles,
// then the permutation runs and the padding buffer refuses input for 3
// cycles, during which a small input FIFO buffers arriving pairs so
// nothing is dropped. Digests are bit-identical to standard SHA3-512;
// the cycle model only accounts time.
package hashengine

import "math/bits"

// Keccak-f[1600] round constants.
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the full 24-round permutation in place. The round
// body is unrolled with all 25 lanes in locals: the generic loop version
// spent most of its time on lane loads/stores and modular index
// arithmetic. Generated from the rotation/permutation tables of the loop
// form and bit-identical to it (TestKeccakUnrollMatchesSpec).
//
//lofat:zeroalloc
func keccakF1600(a *[25]uint64) {
	a00 := a[0]
	a01 := a[1]
	a02 := a[2]
	a03 := a[3]
	a04 := a[4]
	a05 := a[5]
	a06 := a[6]
	a07 := a[7]
	a08 := a[8]
	a09 := a[9]
	a10 := a[10]
	a11 := a[11]
	a12 := a[12]
	a13 := a[13]
	a14 := a[14]
	a15 := a[15]
	a16 := a[16]
	a17 := a[17]
	a18 := a[18]
	a19 := a[19]
	a20 := a[20]
	a21 := a[21]
	a22 := a[22]
	a23 := a[23]
	a24 := a[24]
	for round := 0; round < 24; round++ {
		// theta
		c0 := a00 ^ a05 ^ a10 ^ a15 ^ a20
		c1 := a01 ^ a06 ^ a11 ^ a16 ^ a21
		c2 := a02 ^ a07 ^ a12 ^ a17 ^ a22
		c3 := a03 ^ a08 ^ a13 ^ a18 ^ a23
		c4 := a04 ^ a09 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		a00 ^= d0
		a01 ^= d1
		a02 ^= d2
		a03 ^= d3
		a04 ^= d4
		a05 ^= d0
		a06 ^= d1
		a07 ^= d2
		a08 ^= d3
		a09 ^= d4
		a10 ^= d0
		a11 ^= d1
		a12 ^= d2
		a13 ^= d3
		a14 ^= d4
		a15 ^= d0
		a16 ^= d1
		a17 ^= d2
		a18 ^= d3
		a19 ^= d4
		a20 ^= d0
		a21 ^= d1
		a22 ^= d2
		a23 ^= d3
		a24 ^= d4
		// rho + pi
		b00 := a00
		b01 := bits.RotateLeft64(a06, 44)
		b02 := bits.RotateLeft64(a12, 43)
		b03 := bits.RotateLeft64(a18, 21)
		b04 := bits.RotateLeft64(a24, 14)
		b05 := bits.RotateLeft64(a03, 28)
		b06 := bits.RotateLeft64(a09, 20)
		b07 := bits.RotateLeft64(a10, 3)
		b08 := bits.RotateLeft64(a16, 45)
		b09 := bits.RotateLeft64(a22, 61)
		b10 := bits.RotateLeft64(a01, 1)
		b11 := bits.RotateLeft64(a07, 6)
		b12 := bits.RotateLeft64(a13, 25)
		b13 := bits.RotateLeft64(a19, 8)
		b14 := bits.RotateLeft64(a20, 18)
		b15 := bits.RotateLeft64(a04, 27)
		b16 := bits.RotateLeft64(a05, 36)
		b17 := bits.RotateLeft64(a11, 10)
		b18 := bits.RotateLeft64(a17, 15)
		b19 := bits.RotateLeft64(a23, 56)
		b20 := bits.RotateLeft64(a02, 62)
		b21 := bits.RotateLeft64(a08, 55)
		b22 := bits.RotateLeft64(a14, 39)
		b23 := bits.RotateLeft64(a15, 41)
		b24 := bits.RotateLeft64(a21, 2)
		// chi
		a00 = b00 ^ (^b01 & b02)
		a01 = b01 ^ (^b02 & b03)
		a02 = b02 ^ (^b03 & b04)
		a03 = b03 ^ (^b04 & b00)
		a04 = b04 ^ (^b00 & b01)
		a05 = b05 ^ (^b06 & b07)
		a06 = b06 ^ (^b07 & b08)
		a07 = b07 ^ (^b08 & b09)
		a08 = b08 ^ (^b09 & b05)
		a09 = b09 ^ (^b05 & b06)
		a10 = b10 ^ (^b11 & b12)
		a11 = b11 ^ (^b12 & b13)
		a12 = b12 ^ (^b13 & b14)
		a13 = b13 ^ (^b14 & b10)
		a14 = b14 ^ (^b10 & b11)
		a15 = b15 ^ (^b16 & b17)
		a16 = b16 ^ (^b17 & b18)
		a17 = b17 ^ (^b18 & b19)
		a18 = b18 ^ (^b19 & b15)
		a19 = b19 ^ (^b15 & b16)
		a20 = b20 ^ (^b21 & b22)
		a21 = b21 ^ (^b22 & b23)
		a22 = b22 ^ (^b23 & b24)
		a23 = b23 ^ (^b24 & b20)
		a24 = b24 ^ (^b20 & b21)
		// iota
		a00 ^= roundConstants[round]
	}
	a[0] = a00
	a[1] = a01
	a[2] = a02
	a[3] = a03
	a[4] = a04
	a[5] = a05
	a[6] = a06
	a[7] = a07
	a[8] = a08
	a[9] = a09
	a[10] = a10
	a[11] = a11
	a[12] = a12
	a[13] = a13
	a[14] = a14
	a[15] = a15
	a[16] = a16
	a[17] = a17
	a[18] = a18
	a[19] = a19
	a[20] = a20
	a[21] = a21
	a[22] = a22
	a[23] = a23
	a[24] = a24
}

// Sponge parameters for SHA3-512.
const (
	// Rate is the sponge rate in bytes: 576 bits, the "message block
	// size of 576-bit" the paper's engine operates on.
	Rate = 72
	// DigestSize is the SHA3-512 output length in bytes.
	DigestSize = 64
	// domainSHA3 is the SHA-3 domain-separation padding byte.
	domainSHA3 = 0x06
)

// Sponge is an incremental SHA3-512 absorber. The zero value is ready to
// use.
type Sponge struct {
	state  [25]uint64
	buf    [Rate]byte
	bufLen int
	closed bool
}

// Write absorbs p into the sponge. It never fails.
//
//lofat:zeroalloc
func (s *Sponge) Write(p []byte) (int, error) {
	if s.closed {
		panic("hashengine: Write after Sum")
	}
	n := len(p)
	for len(p) > 0 {
		c := copy(s.buf[s.bufLen:], p)
		s.bufLen += c
		p = p[c:]
		if s.bufLen == Rate {
			s.absorbBlock()
		}
	}
	return n, nil
}

//lofat:zeroalloc
func (s *Sponge) absorbBlock() {
	for i := 0; i < Rate/8; i++ {
		s.state[i] ^= leUint64(s.buf[8*i:])
	}
	keccakF1600(&s.state)
	s.bufLen = 0
}

// Sum finalizes the sponge and returns the SHA3-512 digest. The sponge
// must not be written to afterwards.
func (s *Sponge) Sum() [DigestSize]byte {
	// Pad: 0x06 ... 0x80 within the rate block.
	for i := s.bufLen; i < Rate; i++ {
		s.buf[i] = 0
	}
	s.buf[s.bufLen] = domainSHA3
	s.buf[Rate-1] |= 0x80
	for i := 0; i < Rate/8; i++ {
		s.state[i] ^= leUint64(s.buf[8*i:])
	}
	keccakF1600(&s.state)
	s.closed = true

	var out [DigestSize]byte
	for i := 0; i < DigestSize/8; i++ {
		putLeUint64(out[8*i:], s.state[i])
	}
	return out
}

// WritePair absorbs the 8-byte little-endian (src, dest) word — the
// engine's per-cycle input — directly into the rate buffer, avoiding the
// intermediate byte-slice copy of the generic Write path. Byte-for-byte
// equivalent to writing Pair.bytes().
//
//lofat:zeroalloc
func (s *Sponge) WritePair(src, dest uint32) {
	if s.closed {
		panic("hashengine: Write after Sum")
	}
	if s.bufLen+8 <= Rate {
		putLeUint64(s.buf[s.bufLen:], uint64(src)|uint64(dest)<<32)
		s.bufLen += 8
		if s.bufLen == Rate {
			s.absorbBlock()
		}
		return
	}
	// Unaligned tail from a previous odd-length Write: fall back to the
	// generic path, which splits across the block boundary.
	var b [8]byte
	putLeUint64(b[:], uint64(src)|uint64(dest)<<32)
	s.Write(b[:])
}

// Reset returns the sponge to its initial state.
//
//lofat:zeroalloc
func (s *Sponge) Reset() {
	*s = Sponge{}
}

// Sum512 is the one-shot SHA3-512 of msg.
func Sum512(msg []byte) [DigestSize]byte {
	var s Sponge
	s.Write(msg)
	return s.Sum()
}

//lofat:zeroalloc
func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

//lofat:zeroalloc
func putLeUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
