package hashengine

import (
	"math/bits"
	"testing"

	"lofat/internal/obs"
)

// TestEngineZeroAllocSteadyState pins the zero-allocation property of
// the engine hot path: Enqueue and Tick (including block absorption and
// the busy window) must never allocate once the engine is constructed.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := New(Config{})
	i := uint32(0)
	op := func() {
		for e.Full() || !e.Enqueue(Pair{Src: i, Dest: i * 7}) {
			e.Tick()
		}
		i++
		e.Tick()
	}
	op() // warm up
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("Enqueue/Tick steady state: %v allocs/op, want 0", allocs)
	}
}

// TestEngineZeroAllocWithGauge pins the same property with a FIFO
// occupancy gauge attached: publishing occupancy is an atomic store,
// never an allocation.
func TestEngineZeroAllocWithGauge(t *testing.T) {
	e := New(Config{})
	var g obs.Gauge
	e.SetFIFOGauge(&g)
	i := uint32(0)
	op := func() {
		for !e.Enqueue(Pair{Src: i, Dest: i * 7}) {
			e.Tick()
		}
		i++
		e.Tick()
	}
	op() // warm up
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("Enqueue/Tick with gauge: %v allocs/op, want 0", allocs)
	}
	if g.Load() < 0 || g.Load() > int64(e.cfg.FIFODepth) {
		t.Fatalf("gauge out of range: %d", g.Load())
	}
}

// TestAdvanceMatchesTicks proves Advance(n) is counter-identical to n
// Ticks in every engine state: mid-block, busy window, loaded FIFO.
func TestAdvanceMatchesTicks(t *testing.T) {
	for _, load := range []int{0, 1, 3, 4} {
		a, b := New(Config{}), New(Config{})
		for j := 0; j < 25; j++ { // park both engines in a mid-stream state
			a.Enqueue(Pair{Src: uint32(j), Dest: uint32(j)})
			b.Enqueue(Pair{Src: uint32(j), Dest: uint32(j)})
			a.Tick()
			b.Tick()
		}
		for j := 0; j < load; j++ {
			a.Enqueue(Pair{Src: 99, Dest: uint32(j)})
			b.Enqueue(Pair{Src: 99, Dest: uint32(j)})
		}
		const n = 40
		a.Advance(n)
		for j := 0; j < n; j++ {
			b.Tick()
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("load %d: Advance stats %+v != Tick stats %+v", load, a.Stats(), b.Stats())
		}
		if a.Finalize() != b.Finalize() {
			t.Fatalf("load %d: digests diverged", load)
		}
	}
}

// TestWritePairMatchesWrite proves the direct lane-buffer path is
// byte-identical to the generic Write path, including after an
// unaligned prefix write.
func TestWritePairMatchesWrite(t *testing.T) {
	for _, prefix := range []int{0, 1, 7, 64, 65} {
		var viaPair, viaWrite Sponge
		junk := make([]byte, prefix)
		for i := range junk {
			junk[i] = byte(i * 31)
		}
		viaPair.Write(junk)
		viaWrite.Write(junk)
		for i := 0; i < 40; i++ {
			p := Pair{Src: uint32(i * 11), Dest: uint32(i * 13)}
			viaPair.WritePair(p.Src, p.Dest)
			b := p.bytes()
			viaWrite.Write(b[:])
		}
		if viaPair.Sum() != viaWrite.Sum() {
			t.Fatalf("prefix %d: WritePair digest != Write digest", prefix)
		}
	}
}

// Rotation offsets and lane permutation for the rho/pi steps, in the
// order the combined loop visits lanes.
var (
	rotc = [24]int{1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
		27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44}
	piln = [24]int{10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
		15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1}
)

// keccakF1600Generic is the textbook loop formulation of the
// permutation, kept as the executable specification the unrolled
// keccakF1600 is differentially tested against.
func keccakF1600Generic(a *[25]uint64) {
	var bc [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for i := 0; i < 5; i++ {
			bc[i] = a[i] ^ a[i+5] ^ a[i+10] ^ a[i+15] ^ a[i+20]
		}
		for i := 0; i < 5; i++ {
			t := bc[(i+4)%5] ^ bits.RotateLeft64(bc[(i+1)%5], 1)
			for j := 0; j < 25; j += 5 {
				a[j+i] ^= t
			}
		}
		// rho + pi
		t := a[1]
		for i := 0; i < 24; i++ {
			j := piln[i]
			bc[0] = a[j]
			a[j] = bits.RotateLeft64(t, rotc[i])
			t = bc[0]
		}
		// chi
		for j := 0; j < 25; j += 5 {
			for i := 0; i < 5; i++ {
				bc[i] = a[j+i]
			}
			for i := 0; i < 5; i++ {
				a[j+i] = bc[i] ^ (^bc[(i+1)%5] & bc[(i+2)%5])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

// TestKeccakUnrollMatchesSpec differentially tests the unrolled
// permutation against the loop formulation over pseudorandom states.
func TestKeccakUnrollMatchesSpec(t *testing.T) {
	var x uint64 = 0x9E3779B97F4A7C15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 200; trial++ {
		var a, b [25]uint64
		for i := range a {
			a[i] = next()
			b[i] = a[i]
		}
		keccakF1600(&a)
		keccakF1600Generic(&b)
		if a != b {
			t.Fatalf("trial %d: unrolled permutation diverged from spec", trial)
		}
	}
}
