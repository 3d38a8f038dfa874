package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lofat/internal/attest"
	"lofat/internal/obs"
	"lofat/internal/stream"
)

// SweepReport summarises one attestation sweep of a program's fleet.
type SweepReport struct {
	Program attest.ProgramID
	// Input is the challenge input this sweep used.
	Input []uint32
	// Streamed reports whether the sweep used the segmented streaming
	// protocol.
	Streamed bool
	// Devices is the number enrolled for the program; Skipped of those
	// were not challenged (quarantined, or transport breaker open —
	// the latter also counted in BreakerSkipped).
	Devices int
	Skipped int

	Accepted int
	Rejected int
	Errors   int
	// Retried counts rounds that needed more than one transport
	// attempt (whether or not they eventually completed).
	Retried int
	// NewlyQuarantined lists devices this sweep quarantined.
	NewlyQuarantined []DeviceID
	// NewlyTripped lists devices whose transport breaker this sweep
	// tripped; BreakerSkipped / BreakerProbes count breaker-gated
	// rounds.
	NewlyTripped   []DeviceID
	BreakerSkipped int
	BreakerProbes  int
	// ByClass breaks verified rounds down per classification.
	ByClass map[attest.Classification]int

	// SegmentsVerified / EarlyAborts aggregate the streaming outcomes
	// of a streamed sweep (zero otherwise).
	SegmentsVerified int
	EarlyAborts      int

	Duration time.Duration
	// Throughput is verified rounds per second for this sweep.
	Throughput float64
}

// String renders a one-line sweep summary.
func (r SweepReport) String() string {
	s := fmt.Sprintf("sweep %v: %d devices, %d accepted, %d rejected, %d errors, %d skipped, %d newly quarantined, %.0f rounds/s",
		r.Program, r.Devices, r.Accepted, r.Rejected, r.Errors, r.Skipped, len(r.NewlyQuarantined), r.Throughput)
	if r.Retried > 0 || len(r.NewlyTripped) > 0 || r.BreakerSkipped > 0 || r.BreakerProbes > 0 {
		s += fmt.Sprintf(" [transport: %d retried, %d newly tripped, %d breaker-skipped, %d probes]",
			r.Retried, len(r.NewlyTripped), r.BreakerSkipped, r.BreakerProbes)
	}
	if r.Streamed {
		s += fmt.Sprintf(" [streamed: %d segments, %d early aborts]", r.SegmentsVerified, r.EarlyAborts)
	}
	return s
}

// ProgramError pairs a program with its sweep failure.
type ProgramError struct {
	Program attest.ProgramID
	Err     error
}

func (e ProgramError) Error() string { return fmt.Sprintf("program %v: %v", e.Program, e.Err) }

func (e ProgramError) Unwrap() error { return e.Err }

// SweepError aggregates the per-program failures of one fleet sweep.
// It unwraps to every underlying error, so errors.Is(err, ErrClosed)
// still detects a service closed mid-sweep.
type SweepError struct {
	Failures []ProgramError
}

func (e *SweepError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = f.Error()
	}
	return fmt.Sprintf("fleet: sweep: %d program(s) failed: %s", len(e.Failures), strings.Join(parts, "; "))
}

func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// Sweep challenges every non-quarantined device of every registered
// program once, rotating through each program's input schedule.
// Programs are swept concurrently, and one program failing does not
// abort the others: the sweep continues, the reports of the programs
// that completed are returned sorted by program ID, and the failures —
// if any — come back aggregated in a *SweepError.
func (s *Service) Sweep() ([]SweepReport, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	type pick struct {
		id    attest.ProgramID
		input []uint32
	}
	picks := make([]pick, 0, len(s.programs))
	for id, p := range s.programs {
		in := p.inputs[p.next%len(p.inputs)]
		p.next++
		picks = append(picks, pick{id: id, input: in})
	}
	s.mu.Unlock()
	sort.Slice(picks, func(i, j int) bool {
		return bytes.Compare(picks[i].id[:], picks[j].id[:]) < 0
	})

	// One generation per fleet sweep, shared by every program, so
	// tripped breakers pace their half-open probes in whole sweeps no
	// matter how many programs are registered.
	gen := s.sweepGen.Add(1)
	all := make([]SweepReport, len(picks))
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	for i, pk := range picks {
		wg.Add(1)
		go func(i int, id attest.ProgramID, input []uint32) {
			defer wg.Done()
			all[i], errs[i] = s.RunSweep(SweepRequest{Program: id, Input: input, Streamed: s.cfg.StreamedSweeps, gen: gen})
		}(i, pk.id, pk.input)
	}
	wg.Wait()

	reports := make([]SweepReport, 0, len(picks))
	var failures []ProgramError
	for i, pk := range picks {
		if errs[i] != nil {
			failures = append(failures, ProgramError{Program: pk.id, Err: errs[i]})
			continue
		}
		reports = append(reports, all[i])
	}
	if len(failures) > 0 {
		return reports, &SweepError{Failures: failures}
	}
	return reports, nil
}

// SweepProgram challenges every non-quarantined device enrolled for one
// program with the given input.
func (s *Service) SweepProgram(prog attest.ProgramID, input []uint32) (SweepReport, error) {
	return s.RunSweep(SweepRequest{Program: prog, Input: input})
}

// SweepRequest names one program sweep.
type SweepRequest struct {
	Program attest.ProgramID
	Input   []uint32
	// Streamed drives the sweep over the segmented streaming protocol:
	// devices are verified incrementally as they execute and rejected —
	// and quarantined — at their first divergent segment. They must
	// serve the stream protocol on their enrolled address.
	Streamed bool
	// Devices restricts the sweep to a subset — the federated placement
	// primitive: a coordinator names exactly which devices each node
	// acts for, so standby replicas hold state without double-challenging
	// the prover. Nil sweeps every member; devices not enrolled for
	// Program are ignored; an empty non-nil subset only warms the cache.
	Devices []DeviceID

	// gen is set by Sweep so every program of one fleet sweep shares a
	// generation; zero draws the next one.
	gen uint64
}

// sweepFail records a program-sweep failure in the flight recorder; the
// Device slot carries the program ID (there is no single device to
// blame for a sweep-level failure).
func (s *Service) sweepFail(prog attest.ProgramID, gen uint64, err error) {
	if s.flight != nil {
		s.flight.Record(obs.Event{Device: prog.String(), Kind: obs.KindSweepFail,
			Detail: err.Error(), Sweep: gen})
	}
}

// RunSweep runs one program sweep. When the measurement cache is enabled
// the golden run is precomputed once up front (through the program's
// template verifier), so the fan-out below never simulates: every
// worker-pool verification is a cache hit.
func (s *Service) RunSweep(req SweepRequest) (SweepReport, error) {
	prog, input, streamed, gen := req.Program, req.Input, req.Streamed, req.gen
	if gen == 0 {
		gen = s.sweepGen.Add(1)
	}
	s.mu.RLock()
	p, ok := s.programs[prog]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return SweepReport{}, ErrClosed
	}
	if !ok {
		err := fmt.Errorf("fleet: program %v not registered", prog)
		s.sweepFail(prog, gen, err)
		return SweepReport{}, err
	}

	// Each program sweep is its own trace track: the sweep span brackets
	// cache warming and the full fan-out, and the per-round spans on the
	// worker tracks nest inside it by time.
	sc := obs.Scope{T: s.tracer, TID: s.tracer.NextTID()}
	ssp := sc.Start("sweep", "fleet")
	if sc.Enabled() {
		ssp = ssp.Arg("program", prog.String())
		if streamed {
			ssp = ssp.Arg("mode", "streamed")
		}
	}
	defer ssp.End()

	rep := SweepReport{
		Program:  prog,
		Input:    append([]uint32(nil), input...),
		Streamed: streamed,
		ByClass:  make(map[attest.Classification]int),
	}
	start := time.Now()
	if s.cache != nil {
		wsp := sc.Start("warm-cache", "fleet")
		if streamed {
			// Streamed golden runs carry the per-segment states; they
			// also seed the plain end-of-run expectation.
			sv := stream.NewVerifier(p.template, stream.Config{SegmentEvents: s.cfg.StreamSegmentEvents})
			if err := sv.Precompute([][]uint32{input}); err != nil {
				wsp.End()
				err = fmt.Errorf("fleet: warm stream cache: %w", err)
				s.sweepFail(prog, gen, err)
				return rep, err
			}
		} else if err := p.template.Precompute([][]uint32{input}); err != nil {
			wsp.End()
			err = fmt.Errorf("fleet: warm cache: %w", err)
			s.sweepFail(prog, gen, err)
			return rep, err
		}
		wsp.End()
	}

	members := s.reg.membersOf(prog)
	if req.Devices != nil {
		only := make(map[DeviceID]bool, len(req.Devices))
		for _, id := range req.Devices {
			only[id] = true
		}
		kept := members[:0]
		for _, d := range members {
			if only[d.id] {
				kept = append(kept, d)
			}
		}
		members = kept
	}
	rep.Devices = len(members)
	rounds := make([]Round, 0, len(members))
	for _, d := range members {
		rounds = append(rounds, Round{Device: d.id, Input: input, Streamed: streamed, gen: gen})
	}
	outs, err := s.SubmitBatch(rounds)
	if err != nil {
		s.sweepFail(prog, gen, err)
		return rep, err
	}
	for _, o := range outs {
		switch {
		case o.Skipped:
			rep.Skipped++
			if o.BreakerOpen {
				rep.BreakerSkipped++
			}
		case o.Err != nil:
			rep.Errors++
		case o.Result.Accepted:
			rep.Accepted++
			rep.ByClass[o.Result.Class]++
		default:
			rep.Rejected++
			rep.ByClass[o.Result.Class]++
		}
		if o.Stream != nil {
			rep.SegmentsVerified += int(o.Stream.Segments)
			if o.Stream.EarlyAbort {
				rep.EarlyAborts++
			}
		}
		if o.Attempts > 1 {
			rep.Retried++
		}
		if o.BreakerProbe {
			rep.BreakerProbes++
		}
		if o.Quarantined {
			rep.NewlyQuarantined = append(rep.NewlyQuarantined, o.Device)
		}
		if o.Tripped {
			rep.NewlyTripped = append(rep.NewlyTripped, o.Device)
		}
	}
	rep.Duration = time.Since(start)
	if verified := rep.Accepted + rep.Rejected; verified > 0 && rep.Duration > 0 {
		rep.Throughput = float64(verified) / rep.Duration.Seconds()
	}
	s.metrics.sweeps.Add(1)
	s.metrics.sweepDuration.Observe(uint64(rep.Duration))
	s.mu.Lock()
	s.reports = append(s.reports, rep)
	if len(s.reports) > maxRetainedReports {
		s.reports = s.reports[len(s.reports)-maxRetainedReports:]
	}
	s.mu.Unlock()
	return rep, nil
}

// maxRetainedReports bounds the sweep history kept for Reports.
const maxRetainedReports = 256

// Reports returns the retained sweep history, oldest first.
func (s *Service) Reports() []SweepReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]SweepReport(nil), s.reports...)
}

// StartScheduler begins periodic fleet sweeps every interval and
// returns a stop function that halts the loop and waits for an
// in-flight sweep to finish. A non-positive interval is clamped to one
// second rather than panicking the ticker. Sweep errors on a closed
// service end the loop; other errors are recorded in the metrics by
// the pipeline.
func (s *Service) StartScheduler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := s.Sweep(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
