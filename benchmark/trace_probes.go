package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"lofat/internal/attest"
	"lofat/internal/cfg"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/fed"
	"lofat/internal/filter"
	"lofat/internal/fleet"
	"lofat/internal/hashengine"
	"lofat/internal/monitor"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/trace"
	"lofat/internal/workloads"
)

// ns and us render a duration in a per-layer metric's unit.
func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// recorder is a trace.BatchSink that keeps what the core's fast trace
// port delivers, so the probes can replay the same stream into one layer
// at a time.
type recorder struct {
	events []trace.Event
	sync   uint64
}

func (r *recorder) RetireBatch(events []trace.Event) { r.events = append(r.events, events...) }
func (r *recorder) Sync(cycle uint64)                { r.sync = cycle }

// capturedStream is one long-set program's trace, cut at each layer
// boundary: the control-flow events the device sees, the operations the
// filter emits for them, the pairs the monitor forwards to the engine.
type capturedStream struct {
	c      *captured
	events []trace.Event
	sync   uint64 // the core clock at halt
	cycles uint64
	ops    []filter.Op
	pairs  []hashengine.Pair
}

func captureStream(c *captured) (*capturedStream, error) {
	mach, err := cpu.AcquireMachine(c.prog, cpu.LoadOptions{})
	if err != nil {
		return nil, err
	}
	defer cpu.ReleaseMachine(mach)
	rec := &recorder{}
	// The port configuration attest.Measure uses: batched, masked to
	// control-flow events (no Region is configured).
	mach.CPU.TraceBatch = rec
	mach.CPU.TraceCFOnly = true
	mach.CPU.Input = c.input
	mach.CPU.IRQ = c.cfg.IRQ
	if err := mach.CPU.Run(maxInstr); err != nil {
		return nil, err
	}
	s := &capturedStream{c: c, events: rec.events, sync: rec.sync, cycles: mach.CPU.Cycle}
	f := filter.New(c.cfg.Filter)
	var scratch []filter.Op
	for _, e := range s.events {
		scratch = f.Step(e, scratch[:0])
		s.ops = append(s.ops, scratch...)
	}
	s.ops = append(s.ops, f.Flush(nil)...)
	m := monitor.New(c.cfg.Monitor, func(p hashengine.Pair) { s.pairs = append(s.pairs, p) })
	for _, op := range s.ops {
		m.Apply(op)
	}
	// The replayed device must reproduce the pinned measurement, or the
	// probes below would time something other than the product path.
	dev := core.NewDevice(c.cfg)
	dev.RetireBatch(s.events)
	dev.Sync(s.sync)
	if got := dev.Finalize(); got.Hash != c.want.Hash {
		return nil, fmt.Errorf("probe %s: replayed trace measures %x, the run measured %x", c.name, got.Hash[:8], c.want.Hash[:8])
	}
	if hashengine.HashPairs(s.pairs) != c.want.Hash {
		return nil, fmt.Errorf("probe %s: captured pair stream does not hash to the measurement", c.name)
	}
	return s, nil
}

// layerValues is the part of the per-layer ledger that does not depend
// on the workload: what one layer costs, driven alone. It is computed
// once per process and reported by every traced run.
type layerValues struct {
	values    map[string]float64
	attempted uint64
	failed    uint64
	unrolled  *unrolledResult
	// Submit latencies of the round_serial references, plain and with
	// the timing wrappers installed.
	plainRounds, timedRounds []time.Duration
}

// reference runs one plain and one instrumented round_serial re-run.
func (lv *layerValues) reference(rc runConfig) error {
	serial, _ := findWorkload("round_serial")
	p := sharePlan(rc.seconds, referenceShare/referencePairs)
	plain, err := reRun(serial, rc, hooks{}, p, nil)
	if err != nil {
		return err
	}
	var in instruments
	timed, err := reRun(serial, rc, in.hooks(), p, &in)
	if err != nil {
		return err
	}
	lv.attempted += plain.st.attempted + timed.st.attempted
	lv.failed += plain.st.failed + timed.st.failed
	lv.plainRounds = append(lv.plainRounds, plain.st.ops...)
	lv.timedRounds = append(lv.timedRounds, timed.st.ops...)
	return nil
}

// At --seconds 10: the time one probe samples for, the unrolled rounds
// driven, and how many times they alternate with the plain and the
// instrumented round_serial reference.
const (
	probeBudget    = 60 * time.Millisecond
	unrolledRounds = 3000
	referencePairs = 3
)

// probeLayers runs the unrolled round and the layer probes. scale
// stretches or shrinks every sampling budget with the run's --seconds.
func probeLayers(rc runConfig, reconcileTolerance float64, tr *traceLog) (*layerValues, error) {
	lv := &layerValues{values: make(map[string]float64)}
	seed, scale := rc.seed, rc.seconds/10
	budget := time.Duration(float64(probeBudget) * scale)
	pump, err := pumpFirmware()
	if err != nil {
		return nil, err
	}

	// The unrolled rounds alternate with plain and instrumented
	// round_serial references, so that the remainder between them is not
	// the machine drifting from one measurement to the next — and run
	// under round_serial's GOMAXPROCS, so that the remainder is not the
	// second P either.
	err = tr.phase("unrolled rounds and round_serial references", func() error {
		serial, _ := findWorkload("round_serial")
		defer serial.pin()()
		lv.unrolled = &unrolledResult{}
		n := max(int(unrolledRounds*scale)/referencePairs, 40)
		for i := 0; i < referencePairs; i++ {
			part, err := runUnrolled(pump, n, tr)
			if err != nil {
				return err
			}
			lv.unrolled.merge(part)
			lv.attempted += uint64(n)
			if err := lv.reference(rc); err != nil {
				return err
			}
		}
		lv.failed += lv.unrolled.failed
		return lv.unrolled.reconcile(reconcileTolerance)
	})
	if err != nil {
		return nil, err
	}
	lv.ledgerFromUnrolled()

	steps := []struct {
		name string
		fn   func(*layerValues, *firmware, int64, time.Duration) error
	}{
		{"probe sig+attest", probeAttest},
		{"probe capture pipeline", probeCapture},
		{"probe cfg", probeCFG},
		{"probe stream", probeStream},
		{"probe fed", probeFed},
	}
	for _, s := range steps {
		if err := tr.phase(s.name, func() error { return s.fn(lv, pump, seed, budget) }); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return lv, nil
}

// ledgerFromUnrolled reads the transport and protocol lines of the
// ledger off the unrolled round's spans.
func (lv *layerValues) ledgerFromUnrolled() {
	u := lv.unrolled
	v := lv.values
	v["attest.unrolled_round_us"] = us(u.roundMedian())
	v["attest.span_sum_us"] = us(u.spanSum())
	// One frame each way per round: the per-frame cost is their mean.
	v["attest.frame_write_us"] = us(u.typicalCall(callWriteChallenge)+u.typicalCall(callWriteReport)) / 2
	v["attest.frame_read_us"] = us(u.typicalCall(callReadChallenge)+u.typicalCall(callReadReport)) / 2
	v["attest.dial_us"] = us(u.typicalCall(callDial))
	v["attest.close_us"] = us(u.typicalCall(callClose))
	v["attest.prover_attest_us"] = us(u.typicalCall(callMeasure) + u.typicalCall(callSign))
	v["attest.verify_us"] = us(u.typicalCall(callVerify))
	v["attest.report_bytes"] = float64(u.reportBytes)
	// What the unrolled round does not contain — the worker queue, the
	// accept goroutine, netpoll wake-ups, registry bookkeeping — is the
	// remainder against a real Submit round: reported, not hidden.
	plain := durationQuantile(lv.plainRounds, 0.5, time.Microsecond)
	timed := durationQuantile(lv.timedRounds, 0.5, time.Microsecond)
	v["fleet.handoff_residual_us"] = plain - us(u.spanSum())
	v["obs.bench_trace_overhead_pct"] = 100 * ratio(timed-plain, plain)
}

// probeAttest times the signature scheme and the codecs alone, and the
// verifier's reject and golden-run paths.
func probeAttest(lv *layerValues, pump *firmware, _ int64, budget time.Duration) error {
	v := lv.values
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		return err
	}
	prover := attest.NewProver(pump.prog, core.Config{}, keys)
	verifier, err := attest.NewVerifier(pump.prog, core.Config{}, keys.Public(), rand.Reader)
	if err != nil {
		return err
	}
	ch, err := verifier.NewChallenge(pump.input)
	if err != nil {
		return err
	}
	rep, err := prover.Attest(ch)
	if err != nil {
		return err
	}
	payload := attest.SignedPayload(rep)
	pub := keys.Public()
	signT := medianOf(budget, func() { keys.Sign(payload) })
	verifyT := medianOf(budget, func() { _ = sig.Verify(pub, payload, rep.Sig) })
	v["sig.sign_us"] = us(signT)
	v["sig.verify_us"] = us(verifyT)
	v["sig.verify_share_pct"] = 100 * ratio(float64(verifyT), float64(lv.unrolled.roundMedian()))
	// What Verify does beside checking the signature (nonce and program
	// checks, the expectation lookup, the hash and loop comparison): each
	// Verify is timed next to a bare signature check of the same report,
	// so the machine's mood cancels out of the difference.
	var compare []time.Duration
	for start := time.Now(); time.Since(start) < budget || len(compare) < 8; {
		ch, err := verifier.NewChallenge(pump.input)
		if err != nil {
			return err
		}
		honest, err := prover.Attest(ch)
		if err != nil {
			return err
		}
		msg := attest.SignedPayload(honest)
		// Whichever of the two runs second finds the key and the message
		// in cache, so they take turns going first.
		var full, bare time.Duration
		var res attest.Result
		if len(compare)%2 == 0 {
			t0 := time.Now()
			res = verifier.Verify(ch, honest)
			t1 := time.Now()
			_ = sig.Verify(pub, msg, honest.Sig)
			full, bare = t1.Sub(t0), time.Since(t1)
		} else {
			t0 := time.Now()
			_ = sig.Verify(pub, msg, honest.Sig)
			t1 := time.Now()
			res = verifier.Verify(ch, honest)
			bare, full = t1.Sub(t0), time.Since(t1)
		}
		compare = append(compare, full-bare)
		lv.attempted++
		if !res.Accepted {
			lv.failed++
		}
	}
	v["attest.compare_ns"] = durationQuantile(compare, 0.5, time.Nanosecond)

	encCh := attest.EncodeChallenge(&ch)
	encRep := attest.EncodeReport(rep)
	v["attest.encode_challenge_ns"] = ns(medianOf(budget, func() { attest.EncodeChallenge(&ch) }))
	v["attest.decode_challenge_ns"] = ns(medianOf(budget, func() { _, _ = attest.DecodeChallenge(encCh) }))
	v["attest.encode_report_ns"] = ns(medianOf(budget, func() { attest.EncodeReport(rep) }))
	v["attest.decode_report_ns"] = ns(medianOf(budget, func() { _, _ = attest.DecodeReport(encRep) }))

	// The reject path: a loop-counter report (same hash, other counts) is
	// what the classifier works hardest on before CFG validation.
	atk, ok := workloads.AttackByName("loop-counter")
	if !ok {
		return fmt.Errorf("attack loop-counter missing from workloads.Attacks")
	}
	var rejects []time.Duration
	for start := time.Now(); time.Since(start) < budget || len(rejects) < 8; {
		ch, err := verifier.NewChallenge(atk.Workload.Input)
		if err != nil {
			return err
		}
		prover.Adversary = atk.Build(pump.prog)
		bad, err := prover.Attest(ch)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := verifier.Verify(ch, bad)
		rejects = append(rejects, time.Since(t0))
		lv.attempted++
		if res.Accepted || res.Class != atk.Expect {
			lv.failed++
		}
	}
	prover.Adversary = nil
	v["attest.verify_reject_us"] = durationQuantile(rejects, 0.5, time.Microsecond)

	// The verifier's golden run on a heavy schedule it has not seen: what
	// one fleet_cold sweep pays once.
	cold := []uint32{0xC0FFEE, 8, 400, 400, 400, 400, 400, 400, 400, 400}
	v["attest.golden_run_us"] = us(medianOf(budget, func() {
		_, _, _ = attest.Measure(pump.prog, core.Config{}, cold, maxInstr)
	}))
	return nil
}

// probeCapture drives cpu, filter, monitor, hashengine and core.Device
// one at a time with the streams captured from the long set, and takes
// the simulated statistics that must stay bit-identical.
func probeCapture(lv *layerValues, pump *firmware, seed int64, budget time.Duration) error {
	v := lv.values
	_, long, err := captureSets(seed)
	if err != nil {
		return err
	}
	streams := make([]*capturedStream, len(long))
	var events, ops, pairs int
	for i, c := range long {
		if streams[i], err = captureStream(c); err != nil {
			return err
		}
		events += len(streams[i].events)
		ops += len(streams[i].ops)
		pairs += len(streams[i].pairs)
	}

	// Simulated statistics of one pass over the long set. These repeat
	// exactly for one seed; -compare fails when one moves.
	var retiredN, cycles, cfEvents, hashed, deduped, dropped, stalls, maxLag uint64
	var fingerprint hashengine.Sponge
	for _, s := range streams {
		st := s.c.want.Stats
		retiredN += s.c.instr
		cycles += s.cycles
		cfEvents += st.ControlFlowEvents
		hashed += st.HashedPairs
		deduped += st.DedupedPairs
		dropped += st.Engine.Dropped
		stalls += st.ProcessorStallCycles
		maxLag = max(maxLag, st.MaxLagCycles)
		fingerprint.Write(s.c.want.Hash[:])
		// The loop metadata in the report's own canonical encoding.
		fingerprint.Write(attest.EncodeReport(&attest.Report{Loops: s.c.want.Loops, ExitCode: s.c.exit}))
	}
	sum := fingerprint.Sum()
	v["cpu.retired_per_pass"] = float64(retiredN)
	v["cpu.sim_cycles_per_pass"] = float64(cycles)
	v["filter.cf_events_per_pass"] = float64(cfEvents)
	v["monitor.dedup_ratio"] = ratio(float64(deduped), float64(hashed+deduped))
	v["hashengine.hashed_pairs_per_pass"] = float64(hashed)
	v["hashengine.fifo_dropped"] = float64(dropped)
	v["core.stall_cycles"] = float64(stalls)
	v["core.max_lag_cycles"] = float64(maxLag)
	// 48 bits of the SHA-3: a JSON number holds them exactly.
	v["core.sim_fingerprint"] = float64(binary.BigEndian.Uint64(sum[:8]) >> 16)

	// cpu: the bare core, no sink attached.
	bare := medianOf(2*budget, func() {
		for _, s := range streams {
			if _, err := retired(s.c.prog, s.c.cfg, s.c.input); err != nil {
				lv.failed++
			}
		}
	})
	v["cpu.step_ns_per_instr"] = ratio(ns(bare), float64(retiredN))
	v["cpu.acquire_release_ns"] = ns(medianOf(budget, func() {
		m, err := cpu.AcquireMachine(pump.prog, cpu.LoadOptions{})
		if err == nil {
			cpu.ReleaseMachine(m)
		}
	}))

	// The attested run of the same programs: what the capture pipeline
	// adds on top of the bare core.
	attested := medianOf(2*budget, func() {
		for _, s := range streams {
			lv.attempted++
			if !s.c.measure() {
				lv.failed++
			}
		}
	})
	v["core.capture_overhead_pct"] = 100 * ratio(float64(attested-bare), float64(bare))

	f := filter.New(filter.Config{})
	var scratch []filter.Op
	v["filter.step_ns_per_event"] = ratio(ns(medianOf(budget, func() {
		for _, s := range streams {
			f.Reset()
			for i := range s.events {
				scratch = f.Step(s.events[i], scratch[:0])
			}
		}
	})), float64(events))

	m := monitor.New(monitor.Config{}, func(hashengine.Pair) {})
	v["monitor.apply_ns_per_op"] = ratio(ns(medianOf(budget, func() {
		for _, s := range streams {
			m.Reset()
			for i := range s.ops {
				m.Apply(s.ops[i])
			}
		}
	})), float64(ops))

	// hashengine: the device's absorb loop (wait while the FIFO is full,
	// enqueue) over the captured pairs, then the drain.
	e := hashengine.New(hashengine.Config{})
	v["hashengine.enqueue_tick_ns_per_pair"] = ratio(ns(medianOf(budget, func() {
		for _, s := range streams {
			e.Reset()
			for _, p := range s.pairs {
				for e.Full() {
					e.Tick()
				}
				e.Enqueue(p)
			}
			e.Drain()
		}
	})), float64(pairs))
	var sponge hashengine.Sponge
	block := make([]byte, hashengine.Rate)
	v["hashengine.sponge_ns_per_block"] = ns(medianOf(budget, func() { sponge.Write(block) }))

	// core.Device over the captured events: filter, monitor and engine
	// together, with the latency accounting between them.
	v["core.device_ns_per_event"] = ratio(ns(medianOf(budget, func() {
		for _, s := range streams {
			dev := core.AcquireDevice(s.c.cfg)
			dev.RetireBatch(s.events)
			dev.Sync(s.sync)
			dev.Finalize()
			core.ReleaseDevice(dev)
		}
	})), float64(events))
	return nil
}

// probeCFG times the verifier's offline step and its record validation.
func probeCFG(lv *layerValues, pump *firmware, _ int64, budget time.Duration) error {
	v := lv.values
	words := make([]uint32, 0, len(pump.prog.Data)/4)
	for i := 0; i+4 <= len(pump.prog.Data); i += 4 {
		words = append(words, binary.LittleEndian.Uint32(pump.prog.Data[i:]))
	}
	g, err := cfg.Build(pump.prog.Text, pump.prog.TextBase, words)
	if err != nil {
		return err
	}
	v["cfg.build_us"] = us(medianOf(budget, func() {
		_, _ = cfg.Build(pump.prog.Text, pump.prog.TextBase, words)
	}))
	meas, _, err := attest.Measure(pump.prog, core.Config{}, heavyPumpInput, maxInstr)
	if err != nil {
		return err
	}
	if len(meas.Loops) == 0 {
		return fmt.Errorf("heavy pump run recorded no loops")
	}
	v["cfg.validate_record_us"] = us(medianOf(budget, func() {
		for _, rec := range meas.Loops {
			g.ValidateRecord(rec, monitor.DefaultConfig.IndirectBits)
		}
	})) / float64(len(meas.Loops))
	return nil
}

// probeStream times the streaming layer alone: the segmented golden run,
// the verifier's per-segment work, the segment codec, and how early the
// three attacks are cut off.
func probeStream(lv *layerValues, pump *firmware, _ int64, budget time.Duration) error {
	v := lv.values
	v["stream.measure_stream_us"] = us(medianOf(budget, func() {
		_, _, _ = stream.MeasureStream(pump.prog, core.Config{}, pump.input, streamSegmentEvents, maxInstr)
	}))

	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		return err
	}
	newPair := func(fw *firmware) (*attest.Prover, *stream.Prover, *stream.Verifier, error) {
		ap := attest.NewProver(fw.prog, core.Config{}, keys)
		av, err := attest.NewVerifier(fw.prog, core.Config{}, keys.Public(), rand.Reader)
		if err != nil {
			return nil, nil, nil, err
		}
		return ap, stream.NewProver(ap), stream.NewVerifier(av, stream.Config{SegmentEvents: streamSegmentEvents}), nil
	}

	// Honest pump sessions, in memory: each segment's Consume is timed.
	_, sp, sv, err := newPair(pump)
	if err != nil {
		return err
	}
	var consume []time.Duration
	var first *stream.SegmentReport
	for start := time.Now(); time.Since(start) < budget || len(consume) == 0; {
		sess, open, err := sv.Open(pump.input)
		if err != nil {
			return err
		}
		cr, err := sp.Stream(*open, func(sr *stream.SegmentReport) error {
			if first == nil {
				first = sr
			}
			t0 := time.Now()
			res := sess.Consume(sr)
			consume = append(consume, time.Since(t0))
			if res != nil {
				return fmt.Errorf("honest segment %d rejected: %s", sr.Index, res.Class)
			}
			return nil
		})
		if err != nil {
			return err
		}
		lv.attempted++
		if res := sess.Close(cr); !res.Accepted {
			lv.failed++
		}
	}
	v["stream.segment_consume_us"] = durationQuantile(consume, 0.5, time.Microsecond)
	enc := stream.EncodeSegment(first)
	v["stream.segment_bytes"] = float64(len(enc))
	v["stream.encode_segment_ns"] = ns(medianOf(budget, func() { stream.EncodeSegment(first) }))
	v["stream.decode_segment_ns"] = ns(medianOf(budget, func() { _, _ = stream.DecodeSegment(enc) }))

	// Early abort: segments the verifier consumed before it rejected each
	// attack, against the segments of the full expected run.
	fws, err := victimFirmwares()
	if err != nil {
		return err
	}
	var consumed, full int
	for _, fw := range fws {
		ap, sp, sv, err := newPair(fw)
		if err != nil {
			return err
		}
		sess, _, err := sv.Open(fw.input)
		if err != nil {
			return err
		}
		full += sess.ExpectedSegments()
		sess.Abort()
		ap.Adversary = fw.attack.Build(fw.prog)
		res, err := stream.AttestOnce(sp, sv, fw.input, nil)
		if err != nil {
			return err
		}
		lv.attempted++
		if res.Accepted || res.Class != fw.attack.Expect {
			lv.failed++
		}
		consumed += int(res.Segments)
	}
	v["stream.abort_segment_ratio"] = ratio(float64(consumed), float64(full))
	return nil
}

// walUpsert is the WAL record kind of a full device record. fed keeps
// the constant unexported; the value is part of the on-disk format
// (fed.SnapshotVersion 1).
const walUpsert = 1

// probeFed times the federation's own pieces alone: ring placement, one
// WAL append (no fsync), one snapshot encode of a fleet-sized state.
func probeFed(lv *layerValues, pump *firmware, _ int64, budget time.Duration) error {
	v := lv.values
	ring := fed.NewRing(0)
	for i := 0; i < fedNodes; i++ {
		ring.Add(fed.NodeID(fmt.Sprintf("node-%d", i)))
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("loop-counter-%03d", i)
	}
	v["fed.ring_assign_ns"] = ns(medianOf(budget, func() {
		for _, k := range keys {
			ring.AssignN(k, fedReplicas)
		}
	})) / float64(len(keys))

	state := fed.NewState("node-0")
	for i := 0; i < fedDevices; i++ {
		id := fleet.DeviceID(fmt.Sprintf("loop-counter-%03d", i))
		state.Devices[id] = fed.DeviceRecord{ID: id, Addr: "127.0.0.1:40000", Program: attest.ComputeProgramID(pump.prog.Text), Rounds: uint64(i)}
	}
	v["fed.snapshot_encode_us"] = us(medianOf(budget, func() { fed.EncodeSnapshot(state) }))

	dir, err := scratchDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := fed.OpenStore(dir, "node-0")
	if err != nil {
		return err
	}
	defer store.Close()
	rec := fed.WALRecord{Kind: walUpsert, Device: state.Devices["loop-counter-000"]}
	var appendErr error
	v["fed.store_append_us"] = us(medianOf(budget, func() {
		if err := store.Append(rec); err != nil {
			appendErr = err
		}
	}))
	return appendErr
}
