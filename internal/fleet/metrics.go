package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lofat/internal/attest"
	"lofat/internal/obs"
	"lofat/internal/stream"
)

// numClasses covers attest.ClassAccepted..ClassNonControlData.
const numClasses = int(attest.ClassNonControlData) + 1

// failureClass buckets a failed round (all attempts exhausted) by what
// killed it. Each failed round lands in exactly one class.
type failureClass uint8

const (
	failDial failureClass = iota
	failTimeout
	failDrop
	failLocal
	failProtocol
)

func (f failureClass) String() string {
	switch f {
	case failDial:
		return "dial"
	case failTimeout:
		return "timeout"
	case failDrop:
		return "conn-drop"
	case failLocal:
		return "local"
	}
	return "protocol"
}

// classifyFailure maps a round error to its failure class: could not
// dial, peer stalled past a deadline, connection dropped mid-exchange,
// verifier-side fault, or a peer speaking a broken protocol.
func classifyFailure(err error) failureClass {
	var de *DialError
	var te *attest.TransportError
	var le *attest.LocalError
	switch {
	case errors.As(err, &de):
		return failDial
	case errors.As(err, &te) && te.Timeout():
		return failTimeout
	case errors.As(err, &te):
		return failDrop
	case errors.As(err, &le):
		return failLocal
	}
	return failProtocol
}

// Metrics aggregates fleet-wide counters and latency histograms. All
// fields are atomics so the worker pool updates them without a shared
// lock; register exposes them through an obs.Registry for HTTP
// exposition without changing how they are written.
type Metrics struct {
	verified obs.Counter
	accepted obs.Counter
	rejected obs.Counter
	errors   obs.Counter
	skipped  obs.Counter
	sweeps   obs.Counter
	byClass  [numClasses]obs.Counter
	// unknownClass counts verdicts whose classification is outside the
	// known range — a protocol evolution signal that previously vanished
	// silently.
	unknownClass obs.Counter

	// Streaming counters (segmented attestation rounds).
	streamRounds     obs.Counter
	segmentsVerified obs.Counter
	earlyAborts      obs.Counter

	// Transport-failure classes (each failed round increments errors
	// plus exactly one of these) and resilience counters.
	dialFailures   obs.Counter
	timeouts       obs.Counter
	connDrops      obs.Counter
	protocolErrors obs.Counter
	localErrors    obs.Counter
	retries        obs.Counter
	breakerTrips   obs.Counter
	breakerResets  obs.Counter
	breakerSkips   obs.Counter
	breakerProbes  obs.Counter

	// Latency histograms (nanoseconds) and pipeline gauges.
	roundLatency  obs.Histogram
	queueWait     obs.Histogram
	segmentVerify obs.Histogram
	sweepDuration obs.Histogram
	workersBusy   obs.Gauge
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// register exposes every counter, gauge and histogram through reg under
// stable lofat_fleet_* names. Registration is idempotent.
func (m *Metrics) register(reg *obs.Registry) {
	reg.RegisterCounter("lofat_fleet_verified_total", "", "Completed verifications (accepted + rejected).", &m.verified)
	reg.RegisterCounter("lofat_fleet_accepted_total", "", "Rounds accepted.", &m.accepted)
	reg.RegisterCounter("lofat_fleet_rejected_total", "", "Rounds rejected.", &m.rejected)
	reg.RegisterCounter("lofat_fleet_errors_total", "", "Rounds lost to transport or attestation failures.", &m.errors)
	reg.RegisterCounter("lofat_fleet_skipped_total", "", "Rounds dropped for quarantined devices.", &m.skipped)
	reg.RegisterCounter("lofat_fleet_sweeps_total", "", "Completed fleet sweeps.", &m.sweeps)
	for c := 0; c < numClasses; c++ {
		labels := fmt.Sprintf("class=%q", attest.Classification(c).String())
		reg.RegisterCounter("lofat_fleet_class_total", labels, "Verdicts by attack classification.", &m.byClass[c])
	}
	reg.RegisterCounter("lofat_fleet_class_total", `class="unknown"`, "Verdicts by attack classification.", &m.unknownClass)

	reg.RegisterCounter("lofat_fleet_stream_rounds_total", "", "Rounds verified over the streaming protocol.", &m.streamRounds)
	reg.RegisterCounter("lofat_fleet_segments_verified_total", "", "Segment reports consumed by streamed rounds.", &m.segmentsVerified)
	reg.RegisterCounter("lofat_fleet_early_aborts_total", "", "Streamed rounds rejected mid-run at a divergent segment.", &m.earlyAborts)

	reg.RegisterCounter("lofat_fleet_failures_total", `class="dial"`, "Failed rounds by transport-failure class.", &m.dialFailures)
	reg.RegisterCounter("lofat_fleet_failures_total", `class="timeout"`, "Failed rounds by transport-failure class.", &m.timeouts)
	reg.RegisterCounter("lofat_fleet_failures_total", `class="conn-drop"`, "Failed rounds by transport-failure class.", &m.connDrops)
	reg.RegisterCounter("lofat_fleet_failures_total", `class="protocol"`, "Failed rounds by transport-failure class.", &m.protocolErrors)
	reg.RegisterCounter("lofat_fleet_failures_total", `class="local"`, "Failed rounds by transport-failure class.", &m.localErrors)
	reg.RegisterCounter("lofat_fleet_retries_total", "", "Extra transport attempts beyond the first.", &m.retries)
	reg.RegisterCounter("lofat_fleet_breaker_trips_total", "", "Circuit breaker trips.", &m.breakerTrips)
	reg.RegisterCounter("lofat_fleet_breaker_resets_total", "", "Circuit breaker resets.", &m.breakerResets)
	reg.RegisterCounter("lofat_fleet_breaker_skips_total", "", "Rounds dropped on an open breaker.", &m.breakerSkips)
	reg.RegisterCounter("lofat_fleet_breaker_probes_total", "", "Half-open breaker probe rounds.", &m.breakerProbes)

	reg.RegisterHistogram("lofat_fleet_round_latency_ns", "", "End-to-end device round latency.", &m.roundLatency)
	reg.RegisterHistogram("lofat_fleet_queue_wait_ns", "", "Pipeline wait between enqueue and worker pickup.", &m.queueWait)
	reg.RegisterHistogram("lofat_fleet_segment_verify_ns", "", "Per-segment verification time (streamed rounds).", &m.segmentVerify)
	reg.RegisterHistogram("lofat_fleet_sweep_duration_ns", "", "Whole-sweep duration per program.", &m.sweepDuration)
	reg.RegisterGauge("lofat_fleet_workers_busy", "", "Workers currently processing a round.", &m.workersBusy)
}

func (m *Metrics) record(res attest.Result) {
	m.verified.Add(1)
	if res.Accepted {
		m.accepted.Add(1)
	} else {
		m.rejected.Add(1)
	}
	if c := int(res.Class); c < numClasses {
		m.byClass[c].Add(1)
	} else {
		m.unknownClass.Add(1)
	}
}

// recordFailure buckets a failed round into the per-class
// transport-failure counters and returns the class for flight
// recording.
func (m *Metrics) recordFailure(err error) failureClass {
	m.errors.Add(1)
	fc := classifyFailure(err)
	switch fc {
	case failDial:
		m.dialFailures.Add(1)
	case failTimeout:
		m.timeouts.Add(1)
	case failDrop:
		m.connDrops.Add(1)
	case failLocal:
		m.localErrors.Add(1)
	default:
		m.protocolErrors.Add(1)
	}
	return fc
}

func (m *Metrics) recordStream(res stream.Result) {
	m.record(res.Result)
	m.streamRounds.Add(1)
	m.segmentsVerified.Add(uint64(res.Segments))
	if res.EarlyAbort {
		m.earlyAborts.Add(1)
	}
}

// MetricsSnapshot is a point-in-time view of the fleet counters plus
// cache and registry gauges.
type MetricsSnapshot struct {
	// Verified counts completed verifications (accepted + rejected).
	Verified uint64
	Accepted uint64
	Rejected uint64
	// Errors counts rounds lost to transport or attestation failures.
	Errors uint64
	// Skipped counts rounds dropped because the device was quarantined.
	Skipped uint64
	// Sweeps counts completed fleet sweeps.
	Sweeps uint64
	// ByClass breaks verified rounds down per attack classification.
	ByClass map[attest.Classification]uint64
	// UnknownClass counts verdicts whose classification fell outside
	// the known range (future protocol versions, corrupted verdicts).
	UnknownClass uint64

	// StreamRounds counts rounds verified over the streaming protocol;
	// SegmentsVerified sums the segment reports those rounds consumed;
	// EarlyAborts counts streamed rounds rejected at a divergent
	// segment while the device was still running.
	StreamRounds     uint64
	SegmentsVerified uint64
	EarlyAborts      uint64

	// Transport-failure classes: every failed round (all attempts
	// exhausted) lands in exactly one of these. DialFailures could not
	// open a transport; Timeouts hit a per-phase deadline (stalled
	// peer); ConnDrops lost the connection mid-exchange; ProtocolErrors
	// cover peers speaking a broken or hostile protocol, plus rounds
	// unusable for other non-transport reasons (unknown device);
	// LocalErrors failed verifier-side before any bytes moved (golden
	// run, cache, entropy) and say nothing about the device — they
	// never advance a breaker.
	DialFailures   uint64
	Timeouts       uint64
	ConnDrops      uint64
	ProtocolErrors uint64
	LocalErrors    uint64
	// Retries counts extra transport attempts beyond the first.
	Retries uint64
	// BreakerTrips / BreakerResets count breaker state transitions;
	// BreakerSkips are rounds dropped on an open breaker (no timeout
	// budget paid); BreakerProbes are half-open probe rounds.
	BreakerTrips  uint64
	BreakerResets uint64
	BreakerSkips  uint64
	BreakerProbes uint64

	// Latency distributions in nanoseconds: end-to-end round latency,
	// pipeline queue wait, per-segment verify time (streamed rounds),
	// and whole-sweep duration.
	RoundLatency  obs.HistSnapshot
	QueueWait     obs.HistSnapshot
	SegmentVerify obs.HistSnapshot
	SweepDuration obs.HistSnapshot

	// CacheHits / CacheMisses / CacheHitRate mirror the shared
	// measurement cache (zero when the cache is disabled).
	CacheHits    uint64
	CacheMisses  uint64
	CacheHitRate float64

	// Devices / Quarantined / Tripped are registry gauges.
	Devices     int
	Quarantined int
	Tripped     int
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() MetricsSnapshot {
	m := s.metrics
	snap := MetricsSnapshot{
		Verified:     m.verified.Load(),
		Accepted:     m.accepted.Load(),
		Rejected:     m.rejected.Load(),
		Errors:       m.errors.Load(),
		Skipped:      m.skipped.Load(),
		Sweeps:       m.sweeps.Load(),
		ByClass:      make(map[attest.Classification]uint64, numClasses),
		UnknownClass: m.unknownClass.Load(),

		StreamRounds:     m.streamRounds.Load(),
		SegmentsVerified: m.segmentsVerified.Load(),
		EarlyAborts:      m.earlyAborts.Load(),

		DialFailures:   m.dialFailures.Load(),
		Timeouts:       m.timeouts.Load(),
		ConnDrops:      m.connDrops.Load(),
		ProtocolErrors: m.protocolErrors.Load(),
		LocalErrors:    m.localErrors.Load(),
		Retries:        m.retries.Load(),
		BreakerTrips:   m.breakerTrips.Load(),
		BreakerResets:  m.breakerResets.Load(),
		BreakerSkips:   m.breakerSkips.Load(),
		BreakerProbes:  m.breakerProbes.Load(),

		RoundLatency:  m.roundLatency.Snapshot(),
		QueueWait:     m.queueWait.Snapshot(),
		SegmentVerify: m.segmentVerify.Snapshot(),
		SweepDuration: m.sweepDuration.Snapshot(),

		Devices: s.reg.Len(),
		//lofat:ignore locked the pred runs inside count, which holds each shard's read lock around it
		Quarantined: s.reg.count(func(d *device) bool { return d.quarantined }),
		Tripped:     s.reg.count((*device).tripped),
	}
	for c := 0; c < numClasses; c++ {
		if n := m.byClass[c].Load(); n > 0 {
			snap.ByClass[attest.Classification(c)] = n
		}
	}
	if s.cache != nil {
		snap.CacheHits = s.cache.Hits()
		snap.CacheMisses = s.cache.Misses()
		snap.CacheHitRate = s.cache.HitRate()
	}
	return snap
}

// String renders the snapshot as a short operator-readable summary.
func (snap MetricsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices (%d quarantined), %d sweeps, %d verified (%d accepted / %d rejected), %d errors, %d skipped",
		snap.Devices, snap.Quarantined, snap.Sweeps, snap.Verified, snap.Accepted, snap.Rejected, snap.Errors, snap.Skipped)
	if snap.StreamRounds > 0 {
		fmt.Fprintf(&b, ", %d streamed (%d segments, %d early aborts)",
			snap.StreamRounds, snap.SegmentsVerified, snap.EarlyAborts)
	}
	if snap.Errors > 0 || snap.Retries > 0 {
		fmt.Fprintf(&b, ", transport: %d dial / %d timeout / %d drop / %d protocol / %d local, %d retries",
			snap.DialFailures, snap.Timeouts, snap.ConnDrops, snap.ProtocolErrors, snap.LocalErrors, snap.Retries)
	}
	if snap.BreakerTrips > 0 || snap.Tripped > 0 {
		fmt.Fprintf(&b, ", breaker: %d tripped now (%d trips, %d skips, %d probes, %d resets)",
			snap.Tripped, snap.BreakerTrips, snap.BreakerSkips, snap.BreakerProbes, snap.BreakerResets)
	}
	if snap.CacheHits+snap.CacheMisses > 0 {
		fmt.Fprintf(&b, ", cache %.0f%% hit (%d/%d)",
			100*snap.CacheHitRate, snap.CacheHits, snap.CacheHits+snap.CacheMisses)
	}
	if snap.RoundLatency.Count > 0 {
		fmt.Fprintf(&b, ", round latency p50/p95/p99 %s/%s/%s",
			fmtNanos(snap.RoundLatency.Quantile(0.5)),
			fmtNanos(snap.RoundLatency.Quantile(0.95)),
			fmtNanos(snap.RoundLatency.Quantile(0.99)))
	}
	if len(snap.ByClass) > 0 || snap.UnknownClass > 0 {
		classes := make([]attest.Classification, 0, len(snap.ByClass))
		for c := range snap.ByClass {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		parts := make([]string, 0, len(classes)+1)
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%v=%d", c, snap.ByClass[c]))
		}
		if snap.UnknownClass > 0 {
			parts = append(parts, fmt.Sprintf("unknown=%d", snap.UnknownClass))
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
	}
	return b.String()
}

// fmtNanos renders a nanosecond quantity with a readable unit.
func fmtNanos(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}
