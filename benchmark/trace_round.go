package main

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/sig"
)

// traceLog keeps the traced pass's spans in memory and writes them as
// trace-event JSON (Perfetto, chrome://tracing) when the run ends. A
// disabled log drops spans: the per-layer numbers do not need the file.
type traceLog struct {
	enabled bool
	base    time.Time
	mu      sync.Mutex
	events  []traceEvent
}

// traceEvent is one complete ("X") event of the trace-event format.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the log's base
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Tracks of the trace: spans on one track nest by time containment.
const (
	trackVerifier = 1
	trackDevice   = 2
	trackPhases   = 3
)

func newTraceLog(enabled bool) *traceLog {
	return &traceLog{enabled: enabled, base: time.Now()}
}

// span records [start, start+dur) on a track; id ties the spans of one
// round together.
func (t *traceLog) span(track int, name, cat, id string, start time.Time, dur time.Duration) {
	if !t.enabled {
		return
	}
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: track,
		TS:  float64(start.Sub(t.base)) / float64(time.Microsecond),
		Dur: float64(dur) / float64(time.Microsecond),
	}
	if id != "" {
		ev.Args = map[string]string{"round": id}
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// phase times one section of the traced pass as a span of its own.
func (t *traceLog) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.span(trackPhases, name, "bench", "", start, time.Since(start))
	return err
}

func (t *traceLog) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// The calls of one unrolled round, in critical-path order. The verifier
// runs its calls on the caller's goroutine; the device's six run in the
// device goroutine while the verifier waits in its ReadFrame.
const (
	callNewChallenge = iota
	callEncodeChallenge
	callDial
	callWriteChallenge
	callReadChallenge // device
	callDecodeChallenge
	callMeasure
	callSign
	callEncodeReport
	callWriteReport
	callReadReport // verifier, self time: the wait minus the device's calls
	callDecodeReport
	callVerify
	callClose
	numCalls
)

var callNames = [numCalls]string{
	"Verifier.NewChallenge", "EncodeChallenge", "dial", "WriteFrame(challenge)",
	"ReadFrame(challenge)", "DecodeChallenge", "attest.Measure", "SignedPayload+Prover.Sign",
	"EncodeReport", "WriteFrame(report)",
	"ReadFrame(report)", "DecodeReport", "Verifier.Verify", "close",
}

// deviceStamps are the device goroutine's clock readings of one round:
// the boundaries of its six calls.
type deviceStamps struct {
	at  [7]time.Time
	err error
}

// unrolledResult is the ledger of the unrolled rounds: per call, the
// critical-path time it took in every round.
type unrolledResult struct {
	calls       [numCalls][]time.Duration
	rounds      []time.Duration
	reportBytes int
	failed      uint64
	typical     []int
}

// merge appends another batch of rounds to the ledger.
func (u *unrolledResult) merge(o *unrolledResult) {
	for c := range u.calls {
		u.calls[c] = append(u.calls[c], o.calls[c]...)
	}
	u.rounds = append(u.rounds, o.rounds...)
	u.reportBytes = o.reportBytes
	u.failed += o.failed
	u.typical = nil
}

// typicalRounds are the indices of the middle half of the rounds, ranked
// by their total time: the rounds nothing unusual happened to.
func (u *unrolledResult) typicalRounds() []int {
	if u.typical == nil {
		idx := make([]int, len(u.rounds))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return u.rounds[idx[a]] < u.rounds[idx[b]] })
		u.typical = idx[len(idx)/4 : len(idx)-len(idx)/4]
	}
	return u.typical
}

// typicalCall is a call's mean time over the typical rounds. The ledger
// uses it instead of the call's median because it adds: the spans of one
// round tile it, so these means sum exactly to the typical rounds' mean
// total, while medians of skewed spans that trade time with each other
// (a late wake-up lands in one call or the next) fall short of the
// round's median by far more than the ledger's tolerance.
func (u *unrolledResult) typicalCall(call int) time.Duration {
	rounds := u.typicalRounds()
	if len(rounds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, i := range rounds {
		sum += u.calls[call][i]
	}
	return sum / time.Duration(len(rounds))
}

// spanSum is the sum of the ledger's per-call times.
func (u *unrolledResult) spanSum() time.Duration {
	var sum time.Duration
	for c := 0; c < numCalls; c++ {
		sum += u.typicalCall(c)
	}
	return sum
}

func (u *unrolledResult) roundMedian() time.Duration {
	return time.Duration(durationQuantile(u.rounds, 0.5, 1))
}

// unrolledDevice serves the device half of the unrolled round on a
// loopback listener: one challenge per connection, every call stamped.
type unrolledDevice struct {
	ln     net.Listener
	fw     *firmware
	prover *attest.Prover
	stamps chan deviceStamps
	wg     sync.WaitGroup
}

func newUnrolledDevice(fw *firmware, keys *sig.KeyStore) (*unrolledDevice, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &unrolledDevice{
		ln:     ln,
		fw:     fw,
		prover: attest.NewProver(fw.prog, core.Config{}, keys),
		// One round is in flight at a time; the slot lets the device hand
		// its stamps over without waiting for the verifier to ask.
		stamps: make(chan deviceStamps, 1),
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			d.stamps <- d.serve(conn)
			conn.Close()
		}
	}()
	return d, nil
}

// serve answers one challenge with public calls only — what
// Registry.ServeConn and Prover.Attest do, one step at a time.
func (d *unrolledDevice) serve(conn net.Conn) (s deviceStamps) {
	s.at[0] = time.Now()
	typ, payload, err := attest.ReadFrame(conn)
	s.at[1] = time.Now()
	if err != nil || typ != attest.MsgChallenge {
		s.err = fmt.Errorf("device: read challenge: type %d: %v", typ, err)
		return s
	}
	ch, err := attest.DecodeChallenge(payload)
	s.at[2] = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	meas, exit, err := attest.Measure(d.fw.prog, core.Config{}, ch.Input, maxInstr)
	s.at[3] = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	rep := &attest.Report{Program: d.prover.ProgramID(), Nonce: ch.Nonce, Hash: meas.Hash, Loops: meas.Loops, ExitCode: exit}
	rep.Sig = d.prover.Sign(attest.SignedPayload(rep))
	s.at[4] = time.Now()
	out := attest.EncodeReport(rep)
	s.at[5] = time.Now()
	s.err = attest.WriteFrame(conn, attest.MsgReport, out)
	s.at[6] = time.Now()
	return s
}

func (d *unrolledDevice) close() {
	d.ln.Close()
	d.wg.Wait()
}

// runUnrolled drives n rounds of the Figure 2 exchange built only from
// public calls, one span per call, over loopback TCP with a fresh
// connection per round (as the fleet pipeline does today).
func runUnrolled(fw *firmware, n int, tr *traceLog) (*unrolledResult, error) {
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		return nil, err
	}
	dev, err := newUnrolledDevice(fw, keys)
	if err != nil {
		return nil, err
	}
	defer dev.close()
	v, err := attest.NewVerifier(fw.prog, core.Config{}, keys.Public(), rand.Reader)
	if err != nil {
		return nil, err
	}
	addr := dev.ln.Addr().String()
	u := &unrolledResult{}
	// The first rounds warm the golden-run memo and the machine pools;
	// they are driven but not recorded.
	const warm = 20
	for i := -warm; i < n; i++ {
		var t [15]time.Time
		t[0] = time.Now()
		ch, err := v.NewChallenge(fw.input)
		t[1] = time.Now()
		if err != nil {
			return nil, err
		}
		enc := attest.EncodeChallenge(&ch)
		t[2] = time.Now()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		t[3] = time.Now()
		if err != nil {
			return nil, err
		}
		werr := attest.WriteFrame(conn, attest.MsgChallenge, enc)
		t[4] = time.Now()
		typ, payload, rerr := attest.ReadFrame(conn)
		t[11] = time.Now()
		var rep *attest.Report
		var derr error
		if rerr == nil {
			rep, derr = attest.DecodeReport(payload)
		}
		t[12] = time.Now()
		var res attest.Result
		if rep != nil {
			res = v.Verify(ch, rep)
		} else {
			v.ConsumeNonce(ch.Nonce)
		}
		t[13] = time.Now()
		conn.Close()
		t[14] = time.Now()
		ds := <-dev.stamps
		if err := errors.Join(werr, rerr, derr, ds.err); err != nil || typ != attest.MsgReport || !res.Accepted {
			if i >= 0 {
				u.failed++
			}
			continue
		}
		if i < 0 {
			continue
		}
		u.reportBytes = len(payload)
		u.record(i, t, ds, tr)
	}
	return u, nil
}

// record turns one round's clock readings into critical-path times: the
// verifier's calls tile the round except for its ReadFrame(report),
// which overlaps the device's six calls; its self time is the wait minus
// the part of it those calls cover.
func (u *unrolledResult) record(i int, t [15]time.Time, ds deviceStamps, tr *traceLog) {
	id := fmt.Sprint(i)
	waitStart, waitEnd := t[4], t[11]
	clip := func(a, b time.Time) (time.Time, time.Duration) {
		if a.Before(waitStart) {
			a = waitStart
		}
		if b.After(waitEnd) {
			b = waitEnd
		}
		if !b.After(a) {
			return a, 0
		}
		return a, b.Sub(a)
	}
	put := func(call, track int, start time.Time, d time.Duration) {
		u.calls[call] = append(u.calls[call], d)
		tr.span(track, callNames[call], "attest", id, start, d)
	}
	put(callNewChallenge, trackVerifier, t[0], t[1].Sub(t[0]))
	put(callEncodeChallenge, trackVerifier, t[1], t[2].Sub(t[1]))
	put(callDial, trackVerifier, t[2], t[3].Sub(t[2]))
	put(callWriteChallenge, trackVerifier, t[3], t[4].Sub(t[3]))
	var covered time.Duration
	for k := 0; k < 6; k++ {
		start, d := clip(ds.at[k], ds.at[k+1])
		covered += d
		put(callReadChallenge+k, trackDevice, start, d)
	}
	put(callReadReport, trackVerifier, waitStart, waitEnd.Sub(waitStart)-covered)
	put(callDecodeReport, trackVerifier, t[11], t[12].Sub(t[11]))
	put(callVerify, trackVerifier, t[12], t[13].Sub(t[12]))
	put(callClose, trackVerifier, t[13], t[14].Sub(t[13]))
	u.rounds = append(u.rounds, t[14].Sub(t[0]))
	tr.span(trackVerifier, "unrolled round", "bench", id, t[0], t[14].Sub(t[0]))
}

// typicalRound is the typical rounds' mean total: what the ledger's
// lines must add up to.
func (u *unrolledResult) typicalRound() time.Duration {
	rounds := u.typicalRounds()
	if len(rounds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, i := range rounds {
		sum += u.rounds[i]
	}
	return sum / time.Duration(len(rounds))
}

// reconcile fails the run when the ledger's per-call times do not add
// back up to the rounds they were taken from: a ledger whose lines do
// not sum is not a ledger. The spans tile a round by construction, so a
// failure here is a bookkeeping bug, never noise. How far the sum sits
// from the median of all rounds is a property of the machine (a box that
// switches between a fast and a slow mode mid-run pulls the two apart);
// it is reported as attest.span_sum_us beside attest.unrolled_round_us
// and warned about, but does not fail the run.
func (u *unrolledResult) reconcile(tolerance float64) error {
	sum, typical, median := u.spanSum(), u.typicalRound(), u.roundMedian()
	if typical <= 0 {
		return errors.New("unrolled round: no round completed")
	}
	off := func(a, b time.Duration) float64 { return math.Abs(float64(a-b)) / float64(b) }
	if gap := off(sum, typical); gap > tolerance {
		return fmt.Errorf("unrolled round: the spans sum to %v, the rounds they tile take %v: off by %.1f%% (limit %.0f%%)",
			sum, typical, gap*100, tolerance*100)
	}
	if gap := off(sum, median); gap > tolerance {
		fmt.Fprintf(os.Stderr, "benchmark: warning: unrolled round: span sum %v is %.1f%% off the median round %v (unsteady machine)\n",
			sum, gap*100, median)
	}
	return nil
}
