package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"lofat/internal/attest"
	"lofat/internal/obs"
	"lofat/internal/stream"
)

// Round is one unit of pipeline work: challenge device with input.
type Round struct {
	Device DeviceID
	Input  []uint32
	// Streamed selects the segmented streaming protocol for this round:
	// the device is verified incrementally and cut off at the first
	// divergent segment instead of after the run completes.
	Streamed bool

	// gen is the sweep generation the round belongs to (0 for direct
	// submissions); tripped-breaker devices pace half-open probes by it.
	gen uint64
}

// Outcome is the pipeline's record of one completed round.
type Outcome struct {
	Device DeviceID
	// Skipped is set when no exchange happened (device quarantined, or
	// its transport breaker open — see BreakerOpen).
	Skipped bool
	// BreakerOpen is set alongside Skipped when the round was dropped
	// because the device's transport breaker is tripped.
	BreakerOpen bool
	// BreakerProbe marks this round as a half-open probe against a
	// tripped breaker.
	BreakerProbe bool
	// Result is the verifier's decision (valid when Err is nil and the
	// round was not skipped).
	Result attest.Result
	// Stream carries the streaming-specific outcome of a streamed round
	// (segments consumed, early abort, divergence localization).
	Stream *stream.Result
	// Err reports transport or attestation failures (after all
	// transport attempts were exhausted).
	Err error
	// Attempts is the number of transport attempts made (> 1 when the
	// round was retried).
	Attempts int
	// Quarantined is set when this round newly quarantined the device.
	Quarantined bool
	// Tripped is set when this round's failure tripped the device's
	// transport breaker.
	Tripped bool
	// Duration covers the full round: every dial, exchange and backoff.
	Duration time.Duration
}

// label is the outcome's one-word trace annotation (static strings
// only — labeling must not allocate).
func (o *Outcome) label() string {
	switch {
	case o.Skipped:
		return "skipped"
	case o.Err != nil:
		return "error"
	case o.Result.Accepted:
		return "accepted"
	}
	return "rejected"
}

// job carries a round through the queue to a worker, with its result
// slot and completion latch.
type job struct {
	round    Round
	out      *Outcome
	wg       *sync.WaitGroup
	enqueued time.Time
}

// worker drains the job queue until the service closes. Each worker is
// one trace track: its rounds (and their nested exchange/verify/segment
// spans) render as a lane in Perfetto, with queue-wait spans showing
// the gap between enqueue and pickup.
func (s *Service) worker() {
	defer s.workers.Done()
	sc := obs.Scope{T: s.tracer, TID: s.tracer.NextTID()}
	for j := range s.jobs {
		s.metrics.queueWait.Observe(uint64(time.Since(j.enqueued)))
		sc.StartAt("queue-wait", "fleet", j.enqueued).End()
		s.metrics.workersBusy.Add(1)
		*j.out = s.process(j.round, sc)
		s.metrics.workersBusy.Add(-1)
		j.wg.Done()
	}
}

// DialError marks a failure to open the device transport at all, as
// opposed to a failure mid-exchange.
type DialError struct {
	Addr string
	Err  error
}

func (e *DialError) Error() string { return fmt.Sprintf("fleet: dial %q: %v", e.Addr, e.Err) }

func (e *DialError) Unwrap() error { return e.Err }

// retryable reports whether a failed attempt is worth repeating: dial
// failures and transport I/O errors may be transient, while protocol
// violations and prover-side refusals are deterministic — a byzantine
// peer does not improve on retry.
func retryable(err error) bool {
	var de *DialError
	var te *attest.TransportError
	return errors.As(err, &de) || errors.As(err, &te)
}

// process runs one attestation round end to end: registry lookup,
// quarantine and breaker gates, then up to RetryAttempts transport
// attempts of the Figure 2 exchange (dial, challenge with per-phase
// deadlines, prover execution, verification) with exponential backoff
// between them, and finally metrics and registry bookkeeping.
func (s *Service) process(r Round, sc obs.Scope) (out Outcome) {
	out.Device = r.Device
	start := time.Now()
	sp := sc.Start("round", "fleet").Arg("device", string(r.Device))
	defer func() {
		out.Duration = time.Since(start)
		s.metrics.roundLatency.Observe(uint64(out.Duration))
		sp.Arg("outcome", out.label()).End()
	}()

	d, ok := s.reg.get(r.Device)
	if !ok {
		out.Err = fmt.Errorf("fleet: device %q not enrolled", r.Device)
		fc := s.metrics.recordFailure(out.Err)
		if s.flight != nil {
			s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindTransportError,
				Class: fc.String(), Detail: out.Err.Error(), Sweep: r.gen})
		}
		return out
	}
	if _, quarantined := s.quarantineCheck(d); quarantined {
		out.Skipped = true
		s.metrics.skipped.Add(1)
		return out
	}
	skip, probe := s.reg.breakerCheck(d.id, r.gen, s.cfg.BreakerProbeAfter)
	if skip {
		out.Skipped = true
		out.BreakerOpen = true
		s.metrics.skipped.Add(1)
		s.metrics.breakerSkips.Add(1)
		return out
	}
	attempts := s.cfg.RetryAttempts
	if probe {
		// Half-open: one cautious attempt, no retry ladder.
		out.BreakerProbe = true
		s.metrics.breakerProbes.Add(1)
		if s.flight != nil {
			s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindBreakerProbe, Sweep: r.gen})
		}
		attempts = 1
	}

	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			s.metrics.retries.Add(1)
			if s.flight != nil {
				s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindRetry,
					Class: classifyFailure(lastErr).String(), Detail: lastErr.Error(), Sweep: r.gen})
			}
			time.Sleep(s.cfg.backoff(attempt - 1))
		}
		out.Attempts = attempt
		err := s.exchange(d, r, &out, sc)
		if err == nil {
			return out
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	out.Err = lastErr
	fc := s.metrics.recordFailure(lastErr)
	if s.flight != nil {
		s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindTransportError,
			Class: fc.String(), Detail: lastErr.Error(), Sweep: r.gen})
	}
	// Verifier-local failures (golden run, cache, entropy — no bytes
	// moved) carry no evidence about the device: they must not advance
	// its breaker, or a verifier misconfiguration would trip breakers
	// fleet-wide on healthy devices.
	var le *attest.LocalError
	if errors.As(lastErr, &le) {
		return out
	}
	if s.reg.recordError(d.id, lastErr, s.cfg.BreakerThreshold, s.roundGen(r)) {
		out.Tripped = true
		s.metrics.breakerTrips.Add(1)
		if s.flight != nil {
			s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindBreakerTrip,
				Class: fc.String(), Detail: "consecutive transport failures reached breaker threshold", Sweep: r.gen})
		}
	}
	return out
}

// roundGen is the sweep generation breaker bookkeeping anchors on.
// Direct rounds carry none, so they anchor at the current one: a trip
// outside sweeps still sits out BreakerProbeAfter sweeps before its
// first probe.
func (s *Service) roundGen(r Round) uint64 {
	if r.gen != 0 {
		return r.gen
	}
	return s.sweepGen.Load()
}

// exchange dials the device and drives one protocol exchange with
// per-phase deadlines, folding success bookkeeping (metrics, quarantine
// policy, breaker close) into out when the exchange completes.
func (s *Service) exchange(d *device, r Round, out *Outcome, sc obs.Scope) error {
	dsp := sc.Start("dial", "fleet")
	conn, err := s.cfg.Dial(d.addr)
	dsp.End()
	if err != nil {
		return &DialError{Addr: d.addr, Err: err}
	}
	defer conn.Close()
	to := attest.Timeouts{Read: s.cfg.ReadTimeout, Write: s.cfg.WriteTimeout}
	if r.Streamed {
		sv := stream.NewVerifier(d.verifier, stream.Config{
			SegmentEvents: s.cfg.StreamSegmentEvents,
			Trace:         sc,
			SegmentHist:   &s.metrics.segmentVerify,
		})
		xsp := sc.Start("exchange", "stream")
		sres, err := stream.RequestStream(conn, sv, r.Input, to)
		xsp.End()
		if err != nil {
			return err
		}
		// The deferred Close drops the transport right here — for an
		// early-aborted round that is what cuts the device off
		// mid-run: its next segment write fails and the attacked
		// workload stops executing.
		out.Result = sres.Result
		out.Stream = &sres
		s.metrics.recordStream(sres)
		if sres.EarlyAbort && s.flight != nil {
			detail := "rejected mid-run"
			if sres.Divergence != nil {
				detail = fmt.Sprintf("divergence at segment %d, event %d", sres.Divergence.Segment, sres.Divergence.Event)
			}
			s.flight.Record(obs.Event{Device: string(r.Device), Kind: obs.KindEarlyAbort,
				Class: sres.Class.String(), Detail: detail, Sweep: r.gen})
		}
		s.recordVerified(d, sres.Result, r, out)
		return nil
	}
	res, err := attest.RequestAttestation(conn, d.verifier, r.Input, to, sc)
	if err != nil {
		return err
	}
	if res.VerifierFault {
		// The exchange completed but the verifier could not compute
		// the golden comparison: a verifier-local failure wearing a
		// rejection — route it as one so it is neither a measurement
		// verdict against the device nor breaker evidence.
		return &attest.LocalError{Err: fmt.Errorf("fleet: golden comparison unavailable: %s", strings.Join(res.Findings, "; "))}
	}
	out.Result = res
	s.metrics.record(res)
	s.recordVerified(d, res, r, out)
	return nil
}

// recordVerified applies the registry bookkeeping of a completed
// exchange to the outcome. Unauthenticated rejects advance the breaker
// (see authenticatedReject), so they too can trip it.
func (s *Service) recordVerified(d *device, res attest.Result, r Round, out *Outcome) {
	ro := s.reg.recordResult(d.id, res, s.cfg.QuarantineAfter, s.cfg.BreakerThreshold, s.roundGen(r))
	out.Quarantined = ro.NewlyQuarantined
	if ro.BreakerClosed {
		s.metrics.breakerResets.Add(1)
	}
	if ro.Tripped {
		out.Tripped = true
		s.metrics.breakerTrips.Add(1)
	}
	if s.flight != nil {
		detail := ""
		if !res.Accepted && len(res.Findings) > 0 {
			detail = res.Findings[0]
		}
		s.flight.Record(obs.Event{Device: string(d.id), Kind: obs.KindVerdict,
			Class: res.Class.String(), Detail: detail, Sweep: r.gen})
		if ro.BreakerClosed {
			s.flight.Record(obs.Event{Device: string(d.id), Kind: obs.KindBreakerReset,
				Detail: "completed exchange closed the breaker", Sweep: r.gen})
		}
		if ro.Tripped {
			s.flight.Record(obs.Event{Device: string(d.id), Kind: obs.KindBreakerTrip,
				Detail: "unauthenticated rejects reached breaker threshold", Sweep: r.gen})
		}
		if ro.NewlyQuarantined {
			s.flight.Record(obs.Event{Device: string(d.id), Kind: obs.KindQuarantine,
				Class: res.Class.String(), Detail: detail, Sweep: r.gen})
		}
	}
}

// quarantineCheck reads the device's quarantine flag under its shard
// lock (the flag may flip between enqueue and processing).
func (s *Service) quarantineCheck(d *device) (DeviceID, bool) {
	sh := s.reg.shardFor(d.id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return d.id, d.quarantined
}

// Submit runs one round through the pipeline and waits for its outcome.
func (s *Service) Submit(r Round) (Outcome, error) {
	outs, err := s.SubmitBatch([]Round{r})
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// SubmitBatch enqueues a batch of rounds on the bounded job queue and
// waits until the worker pool has completed them all. Enqueueing blocks
// when the queue is full (backpressure instead of unbounded buffering);
// multiple batches may be submitted concurrently. Outcomes are returned
// in submission order. If the service is closed mid-batch, the rounds
// already enqueued still run to completion and their outcomes are
// returned alongside ErrClosed — workers drain the queue on Close, so
// their effects (metrics, quarantines) happen either way.
func (s *Service) SubmitBatch(rounds []Round) ([]Outcome, error) {
	outs := make([]Outcome, len(rounds))
	var wg sync.WaitGroup
	wg.Add(len(rounds))
	for i := range rounds {
		j := &job{round: rounds[i], out: &outs[i], wg: &wg, enqueued: time.Now()}
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			// Release the latch for the rounds that will never run,
			// then wait for the ones already in flight.
			for k := i; k < len(rounds); k++ {
				wg.Done()
			}
			wg.Wait()
			return outs[:i], ErrClosed
		}
		s.jobs <- j
		s.mu.RUnlock()
	}
	wg.Wait()
	return outs, nil
}
