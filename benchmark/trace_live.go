package main

import (
	"io"
	"io/fs"
	"net"
	"strings"
	"sync"
	"time"

	"lofat/internal/fed/faultfs"
	"lofat/internal/obs"
)

// connStats is what the timing wrappers on the device connections (and
// on the federation's control-plane connections) count for one
// instrumented re-run.
type connStats struct {
	mu       sync.Mutex
	dials    uint64
	writes   uint64 // Write calls: the frame layer writes one frame per call
	bytes    uint64 // both directions
	dialWait []time.Duration
	readWait []time.Duration // per connection: time spent inside Read
	detect   []time.Duration // armed devices: dial start to the verifier's close
	waitSum  time.Duration
}

func (s *connStats) onDial(d time.Duration) {
	s.mu.Lock()
	s.dials++
	s.dialWait = append(s.dialWait, d)
	s.mu.Unlock()
}

func (s *connStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dials, s.writes, s.bytes, s.waitSum = 0, 0, 0, 0
	s.dialWait, s.readWait, s.detect = nil, nil, nil
}

// timedConn counts and times the I/O of one connection. It embeds the
// connection, so deadlines armed by the caller land on the real conn.
// Totals go to the shared stats call by call (control-plane connections
// stay open for the whole run); the connection's own read wait becomes
// one sample when it closes.
type timedConn struct {
	net.Conn
	stats    *connStats
	opened   time.Time
	armed    bool
	readWait time.Duration
}

//lofat:rawconn the bench's timing wrapper forwards the caller's Read unchanged; the caller (the deadline-armed frame layer) arms the deadlines on the embedded conn
func (c *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	d := time.Since(t0)
	c.readWait += d
	s := c.stats
	s.mu.Lock()
	s.bytes += uint64(n)
	s.waitSum += d
	s.mu.Unlock()
	return n, err
}

//lofat:rawconn the bench's timing wrapper forwards the caller's Write unchanged; the caller (the deadline-armed frame layer) arms the deadlines on the embedded conn
func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	s := c.stats
	s.mu.Lock()
	s.bytes += uint64(n)
	s.writes++
	s.mu.Unlock()
	return n, err
}

func (c *timedConn) Close() error {
	err := c.Conn.Close()
	s := c.stats
	s.mu.Lock()
	s.readWait = append(s.readWait, c.readWait)
	if c.armed {
		s.detect = append(s.detect, time.Since(c.opened))
	}
	s.mu.Unlock()
	return err
}

// fsStats is what the counting filesystem under the federation's nodes
// sees of their stores.
type fsStats struct {
	mu          sync.Mutex
	walAppends  uint64
	walBytes    uint64
	fsyncs      uint64
	fsync       []time.Duration
	compactions uint64 // snapshot publications (renames)
}

func (s *fsStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walAppends, s.walBytes, s.fsyncs, s.compactions = 0, 0, 0, 0
	s.fsync = nil
}

// countingFS wraps the real filesystem under a node's store.
type countingFS struct {
	faultfs.FS
	stats *fsStats
}

func (f countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, stats: f.stats, wal: strings.HasSuffix(name, ".log")}, nil
}

func (f countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, stats: f.stats}, nil
}

func (f countingFS) Rename(oldpath, newpath string) error {
	f.stats.mu.Lock()
	f.stats.compactions++
	f.stats.mu.Unlock()
	return f.FS.Rename(oldpath, newpath)
}

type countingFile struct {
	faultfs.File
	stats *fsStats
	wal   bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.stats.mu.Lock()
		f.stats.walAppends++
		f.stats.walBytes += uint64(n)
		f.stats.mu.Unlock()
	}
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.stats.mu.Lock()
	f.stats.fsyncs++
	f.stats.fsync = append(f.stats.fsync, d)
	f.stats.mu.Unlock()
	return err
}

// instruments is one instrumented re-run's set of counters and the hooks
// that feed them.
type instruments struct {
	dev  connStats // verifier ↔ device connections
	ctrl connStats // coordinator ↔ node control plane
	disk fsStats

	mu         sync.Mutex
	release    []time.Duration
	waves      uint64
	failedOver uint64
	fedSweeps  uint64
}

func (in *instruments) hooks() hooks {
	return hooks{
		wrapConn: func(d *simDevice, c net.Conn, dialStart time.Time) net.Conn {
			return &timedConn{Conn: c, stats: &in.dev, opened: dialStart, armed: d.armed}
		},
		onDial: in.dev.onDial,
		fs:     countingFS{FS: faultfs.OS{}, stats: &in.disk},
		wrapCtrl: func(c net.Conn) net.Conn {
			return &timedConn{Conn: c, stats: &in.ctrl}
		},
	}
}

// attach sets the observers a scenario calls from inside its operation.
func (in *instruments) attach(sc *scenario) {
	sc.releaseLat = func(d time.Duration) {
		in.mu.Lock()
		in.release = append(in.release, d)
		in.mu.Unlock()
	}
	sc.sweepSeen = func(waves, failedOver int) {
		in.mu.Lock()
		in.fedSweeps++
		in.waves += uint64(waves)
		in.failedOver += uint64(failedOver)
		in.mu.Unlock()
	}
}

// reset drops what set-up and warm-up counted.
func (in *instruments) reset() {
	in.dev.reset()
	in.ctrl.reset()
	in.disk.reset()
	in.mu.Lock()
	in.release, in.waves, in.failedOver, in.fedSweeps = nil, 0, 0, 0
	in.mu.Unlock()
}

// serviceCounters sums the fleet.Service counters of a scenario: one
// service, or the three behind the federation's nodes.
type serviceCounters struct {
	misses                      uint64
	retries, transportFailures  uint64
	streamRounds, segmentsTotal uint64
}

func (c serviceCounters) since(start serviceCounters) serviceCounters {
	return serviceCounters{
		misses:            c.misses - start.misses,
		retries:           c.retries - start.retries,
		transportFailures: c.transportFailures - start.transportFailures,
		streamRounds:      c.streamRounds - start.streamRounds,
		segmentsTotal:     c.segmentsTotal - start.segmentsTotal,
	}
}

func (sc *scenario) counters() serviceCounters {
	var c serviceCounters
	for _, svc := range sc.services {
		m := svc.Metrics()
		c.misses += m.CacheMisses
		c.retries += m.Retries
		c.transportFailures += m.DialFailures + m.Timeouts + m.ConnDrops + m.ProtocolErrors
		c.streamRounds += m.StreamRounds
		c.segmentsTotal += m.SegmentsVerified
	}
	return c
}

// fullHub is observability switched all the way on: a metrics registry,
// a tracer (serialising every span, the output discarded) and a flight
// recorder.
func fullHub() *obs.Hub {
	hub := obs.NewHub()
	hub.Tracer = obs.NewTracer(io.Discard)
	hub.Flight = obs.NewFlight(4096)
	return hub
}
