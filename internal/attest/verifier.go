package attest

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"lofat/internal/asm"
	"lofat/internal/cfg"
	"lofat/internal/core"
	"lofat/internal/monitor"
	"lofat/internal/sig"
)

// ExpectationCache is a shared store of golden measurements consulted
// before (and populated after) a golden run. It lets many verifiers for
// the same firmware image amortize simulation: a fleet verifier computes
// the expected measurement for (S, i) once and every other device's
// verifier reuses it (internal/fleet layers its measurement cache
// through this hook). Keys are opaque strings built by the verifier,
// covering program identity, device configuration AND input — golden
// measurements depend on all three, so caches never need to reason
// about collision domains. Implementations must be safe for concurrent
// use; stored measurements are shared read-only and must not be
// mutated.
type ExpectationCache interface {
	GetExpectation(key string) (*core.Measurement, bool)
	PutExpectation(key string, m *core.Measurement)
}

// Verifier is V of Figure 2: it holds the program binary, its offline
// CFG analysis, the prover's public key, and an entropy source for
// nonces. Expected measurements are produced by golden-running S(i) on
// the verifier's own simulator and are cached per input.
type Verifier struct {
	prog   *asm.Program
	id     ProgramID
	graph  *cfg.Graph
	pub    ed25519.PublicKey
	devCfg core.Config
	rand   io.Reader

	// MaxInstructions bounds golden runs.
	MaxInstructions uint64

	// cacheKeyBase prefixes shared-cache keys with everything besides
	// the input that determines a golden measurement: program identity
	// and the full device configuration.
	cacheKeyBase string

	// mu guards expectations, issued and shared: one verifier may serve
	// many concurrent attestation sessions.
	mu           sync.Mutex
	expectations map[string]*core.Measurement
	issued       map[Nonce]bool
	shared       ExpectationCache
}

// NewVerifier performs the one-time offline pre-processing step:
// disassembly and CFG construction.
func NewVerifier(prog *asm.Program, devCfg core.Config, pub ed25519.PublicKey, rand io.Reader) (*Verifier, error) {
	words := make([]uint32, 0, len(prog.Data)/4)
	for i := 0; i+4 <= len(prog.Data); i += 4 {
		words = append(words, binary.LittleEndian.Uint32(prog.Data[i:]))
	}
	g, err := cfg.Build(prog.Text, prog.TextBase, words)
	if err != nil {
		return nil, fmt.Errorf("attest: verifier CFG: %w", err)
	}
	if devCfg.IRQ.Vector != 0 {
		g.EnableISR(devCfg.IRQ.Vector)
	}
	id := ComputeProgramID(prog.Text)
	return &Verifier{
		prog:   prog,
		id:     id,
		graph:  g,
		pub:    pub,
		devCfg: devCfg,
		rand:   rand,
		// %#v covers every config field (all plain values), so two
		// verifiers share cache entries only when program, device
		// configuration and input all agree.
		cacheKeyBase:    fmt.Sprintf("%x|%#v|", id, devCfg),
		MaxInstructions: 50_000_000,
		expectations:    make(map[string]*core.Measurement),
		issued:          make(map[Nonce]bool),
	}, nil
}

// SetExpectationCache installs a shared golden-measurement cache
// consulted before simulating (nil removes it). The verifier still keeps
// its private per-input memo; the shared cache sits behind it so
// cross-verifier reuse survives verifier churn.
func (v *Verifier) SetExpectationCache(c ExpectationCache) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.shared = c
}

// ForKey derives a verifier that shares this verifier's offline analysis
// (program image, CFG, device configuration, shared expectation cache)
// but trusts a different device public key — the fleet deployment: one
// firmware image enrolled on many devices, each holding its own
// hardware-protected key. The derived verifier has independent nonce
// state, so concurrent sessions against different devices never contend.
// The entropy source is shared and must be safe for concurrent use
// (crypto/rand.Reader is).
func (v *Verifier) ForKey(pub ed25519.PublicKey) *Verifier {
	v.mu.Lock()
	defer v.mu.Unlock()
	return &Verifier{
		prog:            v.prog,
		id:              v.id,
		graph:           v.graph,
		pub:             pub,
		devCfg:          v.devCfg,
		rand:            v.rand,
		cacheKeyBase:    v.cacheKeyBase,
		MaxInstructions: v.MaxInstructions,
		expectations:    make(map[string]*core.Measurement),
		issued:          make(map[Nonce]bool),
		shared:          v.shared,
	}
}

// Graph exposes the verifier's CFG (for tooling and reporting).
func (v *Verifier) Graph() *cfg.Graph { return v.graph }

// ProgramID returns the identity V expects the prover to run.
func (v *Verifier) ProgramID() ProgramID { return v.id }

// Program exposes the program image the verifier analyses. Protocol
// extensions layered on the verifier (internal/stream) golden-run it
// with their own instrumentation.
func (v *Verifier) Program() *asm.Program { return v.prog }

// DeviceConfig exposes the hardware configuration golden runs use.
func (v *Verifier) DeviceConfig() core.Config { return v.devCfg }

// PublicKey exposes the enrolled device public key.
func (v *Verifier) PublicKey() ed25519.PublicKey { return v.pub }

// NewChallenge draws a fresh nonce and builds the attestation request
// for input i.
func (v *Verifier) NewChallenge(input []uint32) (Challenge, error) {
	var n Nonce
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, err := io.ReadFull(v.rand, n[:]); err != nil {
		return Challenge{}, fmt.Errorf("attest: nonce: %w", err)
	}
	v.issued[n] = true
	return Challenge{Program: v.id, Nonce: n, Input: append([]uint32(nil), input...)}, nil
}

// expected returns (computing and caching on first use) the golden
// measurement for an input. Lookup order: private memo, shared
// expectation cache, simulation — with the simulated result published to
// both layers.
func (v *Verifier) expected(input []uint32) (*core.Measurement, error) {
	return v.ExpectedCustom("", input, func() (*core.Measurement, error) {
		meas, _, err := Measure(v.prog, v.devCfg, input, v.MaxInstructions)
		if err != nil {
			return nil, fmt.Errorf("attest: golden run: %w", err)
		}
		return &meas, nil
	})
}

// Precompute golden-runs every input ahead of time — the deployment
// mode C-FLAT describes and §3 implies for devices whose input space is
// small and enumerable. Verify on a precomputed input then hits the
// expectation memo and never simulates.
func (v *Verifier) Precompute(inputs [][]uint32) error {
	for _, in := range inputs {
		if _, err := v.expected(in); err != nil {
			return fmt.Errorf("attest: precompute %v: %w", in, err)
		}
	}
	return nil
}

// ExpectedCustom returns (computing and caching on first use) a golden
// measurement produced by a caller-supplied measurement procedure,
// under the verifier's two-layer cache (private memo + shared
// ExpectationCache). kind namespaces the cache entry: the empty kind is
// the plain end-of-run expectation; protocol extensions use distinct
// kinds for expectations with extra state — internal/stream records
// per-segment checkpoint states under "streamN" kinds this way, so
// fleet-wide caches amortize streamed golden runs exactly like plain
// ones. compute runs outside the verifier lock (golden runs are the
// expensive part) and its result is published to both cache layers.
func (v *Verifier) ExpectedCustom(kind string, input []uint32, compute func() (*core.Measurement, error)) (*core.Measurement, error) {
	key := inputKey(input)
	if kind != "" {
		key = kind + "\x00" + key
	}
	v.mu.Lock()
	if m, ok := v.expectations[key]; ok {
		v.mu.Unlock()
		return m, nil
	}
	shared := v.shared
	v.mu.Unlock()
	if shared != nil {
		if m, ok := shared.GetExpectation(v.cacheKeyBase + key); ok {
			v.mu.Lock()
			v.expectations[key] = m
			v.mu.Unlock()
			return m, nil
		}
	}
	m, err := compute()
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.expectations[key] = m
	v.mu.Unlock()
	if shared != nil {
		shared.PutExpectation(v.cacheKeyBase+key, m)
	}
	return m, nil
}

// SeedExpectation publishes a golden measurement for an input into both
// cache layers under the plain end-of-run kind. The caller must have
// produced m by a faithful golden run of the verifier's program and
// device configuration on that input: streamed golden runs (whose hash
// and loop metadata equal the plain run's) seed the end-of-run
// expectation this way, so a streamed session's final Verify never
// re-simulates.
func (v *Verifier) SeedExpectation(input []uint32, m *core.Measurement) {
	key := inputKey(input)
	v.mu.Lock()
	_, have := v.expectations[key]
	if !have {
		v.expectations[key] = m
	}
	shared := v.shared
	v.mu.Unlock()
	if !have && shared != nil {
		if _, ok := shared.GetExpectation(v.cacheKeyBase + key); !ok {
			shared.PutExpectation(v.cacheKeyBase+key, m)
		}
	}
}

func inputKey(input []uint32) string {
	b := make([]byte, 4*len(input))
	for i, w := range input {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return string(b)
}

// Verify runs the full decision procedure on a report for a previously
// issued challenge.
func (v *Verifier) Verify(ch Challenge, rep *Report) Result {
	res := Result{Got: rep}

	// The challenge nonce is retired up front, whatever the verdict:
	// a misbehaving prover must not leave entries behind in the
	// issued-nonce set.
	issued := v.consumeNonce(ch.Nonce)

	// Protocol checks: right program, nonce echo, freshness.
	if rep.Program != v.id {
		return reject(res, ClassProtocol, fmt.Sprintf("program ID %v, expected %v", rep.Program, v.id))
	}
	if rep.Nonce != ch.Nonce {
		return reject(res, ClassProtocol, "nonce mismatch (replay?)")
	}
	if !issued {
		return reject(res, ClassProtocol, "nonce was never issued")
	}

	// Authenticity.
	if err := sig.Verify(v.pub, SignedPayload(rep), rep.Sig); err != nil {
		return reject(res, ClassSignature, err.Error())
	}

	// Golden-run comparison: V knows S and i, so the expected path is
	// fully determined.
	exp, err := v.expected(ch.Input)
	if err != nil {
		res.VerifierFault = true
		return reject(res, ClassProtocol, err.Error())
	}
	res.Expected = exp
	if rep.Hash == exp.Hash && loopsEqual(rep.Loops, exp.Loops) {
		res.Accepted = true
		res.Class = ClassAccepted
		return res
	}

	// Mismatch: diagnose which attack class fits.
	return v.classify(res, exp, rep)
}

// PendingChallenges reports the number of issued-but-unverified nonces
// (for leak detection and operational metrics).
func (v *Verifier) PendingChallenges() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.issued)
}

// ConsumeNonce atomically checks and retires an issued nonce (single
// use). Verify does this itself; protocol extensions layered on the
// verifier (internal/stream) call it when a session terminates before
// reaching Verify — mid-stream rejection or transport failure — so the
// issued-nonce set stays bounded.
func (v *Verifier) ConsumeNonce(n Nonce) bool { return v.consumeNonce(n) }

// consumeNonce atomically checks and retires a nonce (single use).
func (v *Verifier) consumeNonce(n Nonce) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.issued[n] {
		return false
	}
	delete(v.issued, n)
	return true
}

func reject(res Result, class Classification, finding string) Result {
	res.Accepted = false
	res.Class = class
	res.Findings = append(res.Findings, finding)
	return res
}

// classify maps a measurement mismatch to the paper's attack classes.
func (v *Verifier) classify(res Result, exp *core.Measurement, rep *Report) Result {
	res.Accepted = false

	// Class 2 (loop counter corruption): identical hash — the same set
	// of unique paths executed — and identical path structure, but the
	// counters differ. This is exactly the attack that A alone cannot
	// see and L exists to catch.
	if rep.Hash == exp.Hash && loopsStructurallyEqual(rep.Loops, exp.Loops) {
		res.Class = ClassLoopCounter
		for i := range rep.Loops {
			for j := range rep.Loops[i].Paths {
				got := rep.Loops[i].Paths[j].Count
				want := exp.Loops[i].Paths[j].Count
				if got != want {
					res.Findings = append(res.Findings, fmt.Sprintf(
						"loop %#x path %s: %d iterations, expected %d",
						rep.Loops[i].Entry, rep.Loops[i].Paths[j].Code, got, want))
				}
			}
		}
		return res
	}

	// CFG validation of the metadata: any statically impossible path is
	// hard evidence of a control-flow attack (class 3).
	violations := 0
	for _, rec := range rep.Loops {
		for _, wr := range v.graph.ValidateRecord(rec, v.devCfg.Monitor.IndirectBits) {
			if wr.Verdict == cfg.PathInvalid {
				violations++
				res.Findings = append(res.Findings, "CFG violation: "+wr.Reason)
			}
		}
	}
	if violations > 0 {
		res.Class = ClassControlFlow
		return res
	}

	// Everything reported is CFG-consistent but differs from the
	// expected execution under input i: a permissible-but-unintended
	// path (class 1, non-control data) — or a code-pointer attack whose
	// effects hide outside loop metadata; the hash mismatch flags it
	// either way.
	res.Class = ClassNonControlData
	if rep.Hash != exp.Hash {
		res.Findings = append(res.Findings, "measurement hash A differs from expected execution")
	}
	// A presence mismatch — no loop records where the expected execution
	// has them, or records where none are expected — is diagnosed
	// distinctly: suppressed or fabricated metadata is stronger evidence
	// than a generic content difference.
	switch {
	case len(rep.Loops) == 0 && len(exp.Loops) > 0:
		res.Findings = append(res.Findings, fmt.Sprintf(
			"loop metadata L absent: expected execution records %d loops, report has none", len(exp.Loops)))
	case len(rep.Loops) > 0 && len(exp.Loops) == 0:
		res.Findings = append(res.Findings, fmt.Sprintf(
			"loop metadata L unexpected: report records %d loops, expected execution has none", len(rep.Loops)))
	case !loopsEqual(rep.Loops, exp.Loops):
		res.Findings = append(res.Findings, "loop metadata L differs from expected execution")
	}
	return res
}

// loopsEqual compares metadata exactly.
func loopsEqual(a, b []monitor.LoopRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !loopEqual(a[i], b[i], true) {
			return false
		}
	}
	return true
}

// loopsStructurallyEqual ignores counts: same loops, same path IDs in
// the same first-occurrence order, same indirect targets.
func loopsStructurallyEqual(a, b []monitor.LoopRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !loopEqual(a[i], b[i], false) {
			return false
		}
	}
	return true
}

func loopEqual(x, y monitor.LoopRecord, counts bool) bool {
	if x.Entry != y.Entry || x.Exit != y.Exit || x.Partial != y.Partial {
		return false
	}
	if counts && (x.Iterations != y.Iterations || x.IndirectOverflows != y.IndirectOverflows) {
		return false
	}
	if len(x.Paths) != len(y.Paths) || len(x.IndirectTargets) != len(y.IndirectTargets) {
		return false
	}
	for i := range x.Paths {
		if x.Paths[i].Code != y.Paths[i].Code {
			return false
		}
		if counts && x.Paths[i].Count != y.Paths[i].Count {
			return false
		}
	}
	for i := range x.IndirectTargets {
		if x.IndirectTargets[i] != y.IndirectTargets[i] {
			return false
		}
	}
	return true
}
