// Package core integrates the LO-FAT hardware units — branch filter,
// loop monitor, hash engine — into the attestation device of Figure 3.
// The device taps the core's retired-instruction trace port and runs in
// parallel with the pipeline: it never stalls the processor (the
// headline §6.1 result), while its internal latencies (2 cycles for
// branch/loop-status tracking, 5 cycles at loop exit for path-ID
// completion and counter memory update) are accounted and reported.
package core

import (
	"sync"

	"lofat/internal/cpu"
	"lofat/internal/filter"
	"lofat/internal/hashengine"
	"lofat/internal/monitor"
	"lofat/internal/trace"
)

// Region restricts attestation to a code sub-range [Start, End): only
// control-flow events whose source PC lies inside are measured. This is
// the function-granular attestation mode of C-FLAT ("the attested code
// segment" in §4), selected entirely in hardware configuration — the
// binary is still not instrumented. The zero Region attests everything.
type Region struct {
	Start uint32
	End   uint32
}

// Contains reports whether pc is attested under the region (the zero
// region attests all addresses).
//
//lofat:zeroalloc
func (r Region) Contains(pc uint32) bool {
	if r.Start == 0 && r.End == 0 {
		return true
	}
	return pc >= r.Start && pc < r.End
}

// Config aggregates the hardware parameters of all LO-FAT units.
type Config struct {
	Filter  filter.Config
	Monitor monitor.Config
	Engine  hashengine.Config

	// Region restricts attestation to a code range (zero = whole
	// program).
	Region Region

	// BranchTrackCycles is the internal latency for branch instruction
	// and loop status tracking (paper: 2).
	BranchTrackCycles uint64
	// LoopExitCycles is the internal latency at loop exit for path ID
	// generation and loop counter memory access/update (paper: 5).
	LoopExitCycles uint64

	// IRQ is the deterministic interrupt schedule the attested core runs
	// under; the zero value means interrupt-free execution. It is part
	// of the device configuration because the expected measurement
	// depends on it: the verifier must replay the identical schedule to
	// derive the golden (A, L), and the expectation-cache key (which
	// renders the whole Config) must distinguish schedules.
	IRQ cpu.IRQSchedule
}

// DefaultConfig matches the paper's prototype parameters.
var DefaultConfig = Config{
	BranchTrackCycles: 2,
	LoopExitCycles:    5,
}

func (c *Config) fill() {
	if c.BranchTrackCycles == 0 {
		c.BranchTrackCycles = DefaultConfig.BranchTrackCycles
	}
	if c.LoopExitCycles == 0 {
		c.LoopExitCycles = DefaultConfig.LoopExitCycles
	}
}

// Stats aggregates the device-side counters for §6 evaluation.
type Stats struct {
	// ProcessorStallCycles is the number of cycles LO-FAT stalled the
	// attested software. Structurally zero: the device only observes
	// the trace port. Reported to make the claim checkable.
	ProcessorStallCycles uint64
	// ControlFlowEvents is the number of branch/jump/return events.
	ControlFlowEvents uint64
	// LoopEvents is the subset attributed to active loops.
	LoopEvents uint64
	// HashedPairs / DedupedPairs split measured edges into hashed vs
	// suppressed-by-loop-dedup.
	HashedPairs  uint64
	DedupedPairs uint64
	// NewPaths / RepeatedPaths count loop path-ID allocations vs hits.
	NewPaths      uint64
	RepeatedPaths uint64
	// LoopsDetected / LoopExits count filter push/pop operations.
	LoopsDetected uint64
	LoopExits     uint64
	// InternalLatencyCycles is the device-internal work time (branch
	// tracking + loop exits); it overlaps processor execution.
	InternalLatencyCycles uint64
	// MaxLagCycles is the furthest the device pipeline ever ran behind
	// the processor, bounding the FIFO/buffer sizing.
	MaxLagCycles uint64
	// DrainCycles is the post-execution flush time before the final
	// digest is available.
	DrainCycles uint64
	// Engine carries the hash engine counters.
	Engine hashengine.Stats
}

// Measurement is the attestation measurement produced at the end of the
// attested execution: the cumulative hash A and the loop metadata L.
type Measurement struct {
	Hash  [hashengine.DigestSize]byte // A
	Loops []monitor.LoopRecord        // L
	Stats Stats

	// Segments holds the streamed checkpoint chain when the run was
	// measured through the segment emitter (internal/stream); nil for
	// plain end-of-run measurements. Golden streaming runs retain them
	// so incremental verification can compare per-segment states.
	Segments []Segment
}

// Device is the LO-FAT hardware instance. It implements trace.BatchSink
// so it can be attached directly to the simulated core's trace port.
type Device struct {
	cfg     Config
	pool    *sync.Pool // the pool AcquireDevice drew it from; nil for NewDevice
	filter  *filter.Filter
	monitor *monitor.Monitor
	engine  *hashengine.Engine

	ops       []filter.Op // scratch, reused per event
	lastCycle uint64      // CPU cycle of the previous event
	devTime   uint64      // device-internal completion time
	maxLag    uint64
	finalized bool
	drain     uint64
	result    Measurement
}

// NewDevice builds a LO-FAT device with the given configuration.
func NewDevice(cfg Config) *Device {
	cfg.fill()
	d := &Device{cfg: cfg}
	d.engine = hashengine.New(cfg.Engine)
	d.filter = filter.New(cfg.Filter)
	d.monitor = monitor.New(cfg.Monitor, d.absorb)
	return d
}

// devicePools maps each (filled) Config to its pool of *Device. The map
// is typed, so a lookup hashes the Config with compiler-generated code
// rather than through an interface; entries are only ever added.
var devicePools = struct {
	sync.RWMutex
	m map[Config]*sync.Pool
}{m: make(map[Config]*sync.Pool)}

// devicePool returns the pool for cfg, creating it on first use.
func devicePool(cfg Config) *sync.Pool {
	devicePools.RLock()
	pool := devicePools.m[cfg]
	devicePools.RUnlock()
	if pool != nil {
		return pool
	}
	devicePools.Lock()
	defer devicePools.Unlock()
	if pool = devicePools.m[cfg]; pool == nil {
		pool = &sync.Pool{}
		devicePools.m[cfg] = pool
	}
	return pool
}

// AcquireDevice returns a reset device for the configuration, reusing a
// pooled instance (filter stack, monitor frame pool, engine buffers)
// when available. Release with ReleaseDevice once the measurement has
// been finalized and copied out.
func AcquireDevice(cfg Config) *Device {
	cfg.fill()
	pool := devicePool(cfg)
	if d, _ := pool.Get().(*Device); d != nil {
		d.Reset()
		return d
	}
	d := NewDevice(cfg)
	d.pool = pool
	return d
}

// ReleaseDevice returns a device obtained from AcquireDevice to its
// pool. The device (and any Measurement fields that alias it) must not
// be used afterwards; Finalize's result is safe — it owns copies.
func ReleaseDevice(d *Device) {
	if d == nil || d.pool == nil {
		return
	}
	d.pool.Put(d)
}

// absorb forwards a measured pair into the hash engine. The loop
// monitor reads pairs out of the branches memory, so when the engine's
// input FIFO is full it simply waits engine cycles (backpressure inside
// the device — never to the processor) rather than dropping.
//
//lofat:zeroalloc
func (d *Device) absorb(p hashengine.Pair) {
	for d.engine.Full() {
		d.engine.Tick()
		d.devTime++
	}
	d.engine.Enqueue(p)
}

// RetireBatch implements trace.BatchSink: a batch of retired
// instructions in program order from the core's trace port. Each event
// carries its own cycle, so batch delivery is state-identical to
// per-event delivery.
//
//lofat:zeroalloc
func (d *Device) RetireBatch(events []trace.Event) {
	for i := range events {
		d.retire(events[i])
	}
}

// Sync implements trace.BatchSink: the core clock reached cycle without
// further events for this device (trailing non-control-flow retirements
// withheld by the control-flow-only mask). The engine clock catches up
// exactly as it would have per event.
//
//lofat:zeroalloc
func (d *Device) Sync(cycle uint64) {
	if d.finalized {
		return
	}
	if cycle > d.lastCycle {
		d.engine.Advance(cycle - d.lastCycle)
		d.lastCycle = cycle
	}
}

// CFOnlyCompatible reports whether feeding the device only control-flow
// events (plus clock Syncs) produces measurements bit-identical to full
// delivery. True unless a Region is configured: region gating watches
// every retired PC to flush active loops the moment execution leaves the
// attested range, so it needs the unmasked stream.
func (d *Device) CFOnlyCompatible() bool { return d.cfg.Region == (Region{}) }

// retire digests one retired instruction from the core.
//
//lofat:zeroalloc
func (d *Device) retire(e trace.Event) {
	if d.finalized {
		return
	}
	d.Sync(e.Cycle) // the engine clock keeps step with the processor

	// Region gating: leaving the attested range flushes any active
	// loops (their bodies cannot continue outside); events sourced
	// outside the range are not measured.
	if !d.cfg.Region.Contains(e.PC) {
		if d.filter.Depth() > 0 {
			ops := d.filter.Flush(d.ops[:0])
			for _, op := range ops {
				d.devTime += d.cfg.LoopExitCycles
				d.monitor.Apply(op)
			}
		}
		return
	}

	d.ops = d.filter.Step(e, d.ops[:0])
	if len(d.ops) == 0 {
		return
	}

	// Internal latency accounting: the device pipeline catches up to
	// the processor clock, then spends its tracking latency. The
	// processor is never held.
	if d.devTime < e.Cycle {
		d.devTime = e.Cycle
	}
	d.devTime += d.cfg.BranchTrackCycles
	for _, op := range d.ops {
		if op.Kind == filter.OpLoopExit {
			d.devTime += d.cfg.LoopExitCycles
		}
		d.monitor.Apply(op)
	}
	if lag := d.devTime - e.Cycle; lag > d.maxLag {
		d.maxLag = lag
	}
}

// Finalize ends the attested execution: active loops are flushed, the
// engine drains, and the measurement (A, L) is produced. The device must
// be Reset before reuse.
func (d *Device) Finalize() Measurement {
	if d.finalized {
		return d.result
	}
	ops := d.filter.Flush(d.ops[:0])
	for _, op := range ops {
		d.devTime += d.cfg.LoopExitCycles
		d.monitor.Apply(op)
	}
	d.drain = d.engine.Drain()
	d.finalized = true
	d.result = Measurement{
		Hash:  d.engine.Finalize(),
		Loops: append([]monitor.LoopRecord(nil), d.monitor.Records()...),
	}
	d.result.Stats = d.stats()
	return d.result
}

func (d *Device) stats() Stats {
	return Stats{
		ProcessorStallCycles:  0, // structural: the device only listens
		ControlFlowEvents:     d.filter.Events,
		LoopEvents:            d.filter.LoopEvents,
		HashedPairs:           d.monitor.HashedPairs,
		DedupedPairs:          d.monitor.DedupedPairs,
		NewPaths:              d.monitor.NewPaths,
		RepeatedPaths:         d.monitor.RepeatedPaths,
		LoopsDetected:         d.filter.Pushes,
		LoopExits:             d.filter.Exits,
		InternalLatencyCycles: d.devTime,
		MaxLagCycles:          d.maxLag,
		DrainCycles:           d.drain,
		Engine:                d.engine.Stats(),
	}
}

// Reset prepares the device for a fresh attestation run.
//
//lofat:zeroalloc
func (d *Device) Reset() {
	d.filter.Reset()
	d.monitor.Reset()
	d.engine.Reset()
	d.lastCycle = 0
	d.devTime = 0
	d.maxLag = 0
	d.drain = 0
	d.finalized = false
}
