package fed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/obs"
	"lofat/internal/wire"
)

// Coordinator↔node control-plane messages ride the attest frame
// transport (type-tagged, length-prefixed, 16 MiB cap) on type bytes
// 32-47 — the range transport.go reserves for this package; attest owns
// 1-15 and internal/stream 16-19, so one listener can multiplex all
// three protocols.
//
// Payloads use the internal/wire encoding every other codec in the
// repository uses (challenges, reports, fed's own WAL and snapshots):
// one version byte (ctrlVersion), then the payload's fields in
// declaration order. Integers are fixed-width little-endian; strings,
// byte slices and lists are length-prefixed; map entries are written in
// ascending key order; floats travel as their IEEE-754 bits and times
// as time.Time.MarshalBinary bytes. A value therefore has exactly one
// encoding. Empty lists and maps decode as nil. A peer speaking another
// version is refused, never half-read: a node answers msgErr, and the
// coordinator reports a mismatch on either side as a *NodeError.
const (
	// Requests.
	msgRegister byte = 32 // registerReq  → msgOK
	msgEnroll   byte = 33 // enrollReq    → msgOK
	msgSweep    byte = 34 // sweepReq     → msgReport
	msgTransfer byte = 35 // deviceReq    → msgState (extract + forget)
	msgRelease  byte = 36 // deviceReq    → msgState
	msgGet      byte = 37 // deviceReq    → msgState
	msgSync     byte = 38 // syncReq      → msgOK (anti-entropy upsert)
	msgFetch    byte = 39 // fetchReq     → msgRecords (bulk state read)
	// Responses.
	msgRecords byte = 43 // recordsResp
	msgOK      byte = 44 // okResp
	msgReport  byte = 45 // NodeReport
	msgState   byte = 46 // stateResp
	msgErr     byte = 47 // error string (plain bytes, no version byte)
)

// ctrlVersion is the control-plane payload version this build speaks.
const ctrlVersion byte = 1

// errCtrlVersion tags a payload written under another ctrlVersion.
var errCtrlVersion = errors.New("fed: control-plane version mismatch")

type registerReq struct {
	Prog   *asm.Program
	DevCfg core.Config
	Inputs [][]uint32
}

type enrollReq struct {
	// State carries fresh enrolments (zero counters) and federation
	// hand-offs (mid-history restores) alike; the node restores whatever
	// is in it via fleet.Service.EnrollState.
	State fleet.DeviceState
}

type sweepReq struct {
	Program  attest.ProgramID
	Input    []uint32
	Streamed bool
	// Devices is the coordinator's acting set for this node this
	// generation: the node challenges exactly these, never every member
	// it holds, so standby replicas keep warm state without
	// double-challenging the prover. An empty list (which decodes as
	// nil) is the health probe: warm the cache, challenge nothing.
	Devices []fleet.DeviceID
	// WantDelta asks the node to return the device records its sweep
	// changed, feeding the coordinator's anti-entropy pass. Off for
	// unreplicated federations to keep reports small.
	WantDelta bool
}

type deviceReq struct {
	Device fleet.DeviceID
}

// syncReq pushes authoritative device records onto a replica — the
// anti-entropy write half. The node upserts each record: overwrite the
// policy fields of a device it holds, enrol from the record otherwise.
type syncReq struct {
	Records []DeviceRecord
}

// fetchReq reads a batch of device records — the anti-entropy read
// half, used by Rejoin to pull authoritative state from live replicas.
// Unknown devices are silently absent from the response.
type fetchReq struct {
	Devices []fleet.DeviceID
}

type recordsResp struct {
	Records []DeviceRecord
}

type okResp struct {
	Node    NodeID
	Program attest.ProgramID // msgRegister: the registered program's ID
}

type stateResp struct {
	Found bool
	State fleet.DeviceState
}

// NodeError is a node-side failure relayed over the control plane — the
// remote executed the request and refused it, or the two ends speak
// different payload versions. It is not a transport error: retrying the
// same request buys nothing and the node breaker must not count it as
// the node being unreachable.
type NodeError struct {
	Node NodeID
	Msg  string
}

func (e *NodeError) Error() string { return fmt.Sprintf("fed: node %s: %s", e.Node, e.Msg) }

// encodePayload encodes one control-plane payload, version byte first.
func encodePayload(v any) ([]byte, error) {
	w := wire.Writer{Buf: make([]byte, 1, 256)}
	w.Buf[0] = ctrlVersion
	switch v := v.(type) {
	case registerReq:
		encodeRegisterReq(&w, v)
	case enrollReq:
		encodeEnrollReq(&w, v)
	case sweepReq:
		encodeSweepReq(&w, v)
	case deviceReq:
		encodeDeviceReq(&w, v)
	case syncReq:
		encodeSyncReq(&w, v)
	case fetchReq:
		encodeFetchReq(&w, v)
	case recordsResp:
		encodeRecordsResp(&w, v)
	case okResp:
		encodeOKResp(&w, v)
	case stateResp:
		encodeStateResp(&w, v)
	case NodeReport:
		encodeNodeReport(&w, v)
	default:
		return nil, fmt.Errorf("fed: encode payload: no codec for %T", v)
	}
	return w.Buf, nil
}

// decodePayload decodes b, which must hold exactly one payload of v's
// type, into v (a pointer to a payload type). A foreign version byte
// fails with errCtrlVersion before any field is read.
func decodePayload(b []byte, v any) error {
	r := &wire.Reader{Prefix: "fed: ctrl", Buf: b}
	if ver := r.U8(); r.Err == nil && ver != ctrlVersion {
		return fmt.Errorf("%w: payload version %d, this build speaks %d", errCtrlVersion, ver, ctrlVersion)
	}
	switch v := v.(type) {
	case *registerReq:
		*v = decodeRegisterReq(r)
	case *enrollReq:
		*v = decodeEnrollReq(r)
	case *sweepReq:
		*v = decodeSweepReq(r)
	case *deviceReq:
		*v = decodeDeviceReq(r)
	case *syncReq:
		*v = decodeSyncReq(r)
	case *fetchReq:
		*v = decodeFetchReq(r)
	case *recordsResp:
		*v = decodeRecordsResp(r)
	case *okResp:
		*v = decodeOKResp(r)
	case *stateResp:
		*v = decodeStateResp(r)
	case *NodeReport:
		*v = decodeNodeReport(r)
	default:
		return fmt.Errorf("fed: decode payload: no codec for %T", v)
	}
	return r.Finish("payload")
}

func encodeRegisterReq(w *wire.Writer, v registerReq) {
	writeProgram(w, v.Prog)
	writeDevConfig(w, v.DevCfg)
	w.U32(uint32(len(v.Inputs)))
	for _, in := range v.Inputs {
		writeWords(w, in)
	}
}

func decodeRegisterReq(r *wire.Reader) registerReq {
	var v registerReq
	v.Prog = readProgram(r)
	v.DevCfg = readDevConfig(r)
	if n := readCount(r, 4); n > 0 {
		v.Inputs = make([][]uint32, n)
		for i := range v.Inputs {
			v.Inputs[i] = readWords(r)
		}
	}
	return v
}

func encodeEnrollReq(w *wire.Writer, v enrollReq) { writeDeviceState(w, v.State) }

func decodeEnrollReq(r *wire.Reader) enrollReq { return enrollReq{State: readDeviceState(r)} }

func encodeSweepReq(w *wire.Writer, v sweepReq) {
	w.Buf = append(w.Buf, v.Program[:]...)
	writeWords(w, v.Input)
	w.Bool(v.Streamed)
	writeIDs(w, v.Devices)
	w.Bool(v.WantDelta)
}

func decodeSweepReq(r *wire.Reader) sweepReq {
	var v sweepReq
	readProgramID(r, &v.Program)
	v.Input = readWords(r)
	v.Streamed = r.Bool()
	v.Devices = readIDs(r)
	v.WantDelta = r.Bool()
	return v
}

func encodeDeviceReq(w *wire.Writer, v deviceReq) { w.Str(string(v.Device)) }

func decodeDeviceReq(r *wire.Reader) deviceReq { return deviceReq{Device: fleet.DeviceID(r.Str())} }

func encodeSyncReq(w *wire.Writer, v syncReq) { writeRecords(w, v.Records) }

func decodeSyncReq(r *wire.Reader) syncReq { return syncReq{Records: readRecords(r)} }

func encodeFetchReq(w *wire.Writer, v fetchReq) { writeIDs(w, v.Devices) }

func decodeFetchReq(r *wire.Reader) fetchReq { return fetchReq{Devices: readIDs(r)} }

func encodeRecordsResp(w *wire.Writer, v recordsResp) { writeRecords(w, v.Records) }

func decodeRecordsResp(r *wire.Reader) recordsResp { return recordsResp{Records: readRecords(r)} }

func encodeOKResp(w *wire.Writer, v okResp) {
	w.Str(string(v.Node))
	w.Buf = append(w.Buf, v.Program[:]...)
}

func decodeOKResp(r *wire.Reader) okResp {
	var v okResp
	v.Node = NodeID(r.Str())
	readProgramID(r, &v.Program)
	return v
}

func encodeStateResp(w *wire.Writer, v stateResp) {
	w.Bool(v.Found)
	writeDeviceState(w, v.State)
}

func decodeStateResp(r *wire.Reader) stateResp {
	var v stateResp
	v.Found = r.Bool()
	v.State = readDeviceState(r)
	return v
}

func encodeNodeReport(w *wire.Writer, v NodeReport) {
	w.Str(string(v.Node))
	w.Bool(v.Skipped)
	w.Bool(v.Probe)
	w.Str(v.Err)
	writeInt(w, v.Attempts)
	writeInt(w, v.Devices)
	writeSweepReport(w, v.Report)
	writeMetrics(w, v.Metrics)
	w.U32(uint32(len(v.Flight)))
	for _, e := range v.Flight {
		writeEvent(w, e)
	}
	w.Bool(v.LameDuck)
	w.Str(v.StoreErr)
	writeRecords(w, v.Changed)
}

func decodeNodeReport(r *wire.Reader) NodeReport {
	var v NodeReport
	v.Node = NodeID(r.Str())
	v.Skipped = r.Bool()
	v.Probe = r.Bool()
	v.Err = r.Str()
	v.Attempts = readInt(r)
	v.Devices = readInt(r)
	v.Report = readSweepReport(r)
	v.Metrics = readMetrics(r)
	if n := readCount(r, minEventLen); n > 0 {
		v.Flight = make([]obs.Event, n)
		for i := range v.Flight {
			v.Flight[i] = readEvent(r)
		}
	}
	v.LameDuck = r.Bool()
	v.StoreErr = r.Str()
	v.Changed = readRecords(r)
	return v
}

// The helpers below are the field codecs the payloads share. Each
// writeX has a readX that consumes exactly what it wrote.

// readCount reads a u32 element count and fails it when the remaining
// input cannot hold that many elements of at least minLen bytes each,
// so a hostile count never sizes an allocation.
func readCount(r *wire.Reader, minLen int) int {
	n := int(r.U32())
	if r.Err == nil && n > (len(r.Buf)-r.Off)/minLen {
		r.Fail("count")
		return 0
	}
	return n
}

func writeInt(w *wire.Writer, v int) { w.U64(uint64(int64(v))) }

func readInt(r *wire.Reader) int { return int(int64(r.U64())) }

func writeFloat(w *wire.Writer, v float64) { w.U64(math.Float64bits(v)) }

func readFloat(r *wire.Reader) float64 { return math.Float64frombits(r.U64()) }

func writeTime(w *wire.Writer, t time.Time) {
	b, _ := t.MarshalBinary() // fails only on zone offsets no zone database holds
	w.Bytes(b)
}

// readTime accepts only the bytes MarshalBinary itself would produce
// for the decoded time, keeping the encoding canonical.
func readTime(r *wire.Reader) time.Time {
	b := r.Raw(int(r.U32()), "time")
	var t time.Time
	if r.Err != nil {
		return t
	}
	if err := t.UnmarshalBinary(b); err != nil {
		r.Fail("time")
		return time.Time{}
	}
	if again, err := t.MarshalBinary(); err != nil || !bytes.Equal(again, b) {
		r.Fail("time")
		return time.Time{}
	}
	return t
}

func readProgramID(r *wire.Reader, id *attest.ProgramID) {
	copy(id[:], r.Raw(len(id), "program id"))
}

// readBlob reads a length-prefixed byte string; empty decodes as nil.
func readBlob(r *wire.Reader) []byte {
	if b := r.Bytes(); len(b) > 0 {
		return b
	}
	return nil
}

func writeWords(w *wire.Writer, v []uint32) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U32(x)
	}
}

func readWords(r *wire.Reader) []uint32 {
	n := readCount(r, 4)
	if n == 0 {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = r.U32()
	}
	return v
}

func writeStrs(w *wire.Writer, v []string) {
	w.U32(uint32(len(v)))
	for _, s := range v {
		w.Str(s)
	}
}

func readStrs(r *wire.Reader) []string {
	n := readCount(r, 4)
	if n == 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = r.Str()
	}
	return v
}

func writeIDs(w *wire.Writer, v []fleet.DeviceID) {
	w.U32(uint32(len(v)))
	for _, id := range v {
		w.Str(string(id))
	}
}

func readIDs(r *wire.Reader) []fleet.DeviceID {
	n := readCount(r, 4)
	if n == 0 {
		return nil
	}
	v := make([]fleet.DeviceID, n)
	for i := range v {
		v[i] = fleet.DeviceID(r.Str())
	}
	return v
}

// minRecordLen is the smallest writeDeviceRecord output: two empty
// strings and every fixed-width field.
const minRecordLen = 4 + 4 + 32 + 32 + 1 + 4 + 4*8 + 1 + 1 + 4 + 8

func writeRecords(w *wire.Writer, v []DeviceRecord) {
	w.U32(uint32(len(v)))
	for _, d := range v {
		writeDeviceRecord(w, d)
	}
}

func readRecords(r *wire.Reader) []DeviceRecord {
	n := readCount(r, minRecordLen)
	if n == 0 {
		return nil
	}
	v := make([]DeviceRecord, n)
	for i := range v {
		v[i] = readDeviceRecord(r)
	}
	return v
}

func writeProgram(w *wire.Writer, p *asm.Program) {
	w.Bool(p != nil)
	if p == nil {
		return
	}
	w.U32(p.TextBase)
	w.Bytes(p.Text)
	w.U32(p.DataBase)
	w.Bytes(p.Data)
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	slices.Sort(names)
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.Str(name)
		w.U32(p.Labels[name])
	}
	addrs := make([]uint32, 0, len(p.LineFor))
	for addr := range p.LineFor {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	w.U32(uint32(len(addrs)))
	for _, addr := range addrs {
		w.U32(addr)
		writeInt(w, p.LineFor[addr])
	}
}

// readProgram rebuilds the program image and its maps, requiring map
// keys in strictly ascending order (the only order writeProgram emits).
func readProgram(r *wire.Reader) *asm.Program {
	if !r.Bool() {
		return nil
	}
	p := &asm.Program{}
	p.TextBase = r.U32()
	p.Text = readBlob(r)
	p.DataBase = r.U32()
	p.Data = readBlob(r)
	if n := readCount(r, 4+4); n > 0 {
		p.Labels = make(map[string]uint32, n)
		prev := ""
		for i := 0; i < n && r.Err == nil; i++ {
			name := r.Str()
			if i > 0 && name <= prev {
				r.Fail("label order")
			}
			p.Labels[name], prev = r.U32(), name
		}
	}
	if n := readCount(r, 4+8); n > 0 {
		p.LineFor = make(map[uint32]int, n)
		var prev uint32
		for i := 0; i < n && r.Err == nil; i++ {
			addr := r.U32()
			if i > 0 && addr <= prev {
				r.Fail("line order")
			}
			p.LineFor[addr], prev = readInt(r), addr
		}
	}
	return p
}

func writeDevConfig(w *wire.Writer, c core.Config) {
	writeInt(w, c.Filter.MaxDepth)
	writeInt(w, c.Monitor.MaxBranchesPerPath)
	writeInt(w, c.Monitor.IndirectBits)
	w.Bool(c.Monitor.DisableDedup)
	writeInt(w, c.Engine.FIFODepth)
	writeInt(w, c.Engine.PairsPerBlock)
	writeInt(w, c.Engine.BusyCycles)
	w.U32(c.Region.Start)
	w.U32(c.Region.End)
	w.U64(c.BranchTrackCycles)
	w.U64(c.LoopExitCycles)
	w.U32(c.IRQ.Vector)
	w.U64(c.IRQ.Phase)
	w.U64(c.IRQ.Period)
	w.U64(c.IRQ.Count)
}

func readDevConfig(r *wire.Reader) core.Config {
	var c core.Config
	c.Filter.MaxDepth = readInt(r)
	c.Monitor.MaxBranchesPerPath = readInt(r)
	c.Monitor.IndirectBits = readInt(r)
	c.Monitor.DisableDedup = r.Bool()
	c.Engine.FIFODepth = readInt(r)
	c.Engine.PairsPerBlock = readInt(r)
	c.Engine.BusyCycles = readInt(r)
	c.Region.Start = r.U32()
	c.Region.End = r.U32()
	c.BranchTrackCycles = r.U64()
	c.LoopExitCycles = r.U64()
	c.IRQ.Vector = r.U32()
	c.IRQ.Phase = r.U64()
	c.IRQ.Period = r.U64()
	c.IRQ.Count = r.U64()
	return c
}

func writeDeviceState(w *wire.Writer, s fleet.DeviceState) {
	w.Str(string(s.ID))
	w.Str(s.Addr)
	w.Buf = append(w.Buf, s.Program[:]...)
	w.Bytes(s.Pub)
	w.Bool(s.Quarantined)
	writeInt(w, s.ConsecutiveRejects)
	w.U64(s.Rounds)
	w.U64(s.Accepted)
	w.U64(s.Rejected)
	w.U64(s.TransportErrors)
	w.U8(uint8(s.LastClass))
	writeStrs(w, s.LastFindings)
	w.Str(s.LastError)
	writeTime(w, s.LastAttested)
	w.U8(uint8(s.Breaker))
	writeInt(w, s.ConsecutiveTransportFails)
	w.U64(s.BreakerGen)
}

func readDeviceState(r *wire.Reader) fleet.DeviceState {
	var s fleet.DeviceState
	s.ID = fleet.DeviceID(r.Str())
	s.Addr = r.Str()
	readProgramID(r, &s.Program)
	s.Pub = readBlob(r)
	s.Quarantined = r.Bool()
	s.ConsecutiveRejects = readInt(r)
	s.Rounds = r.U64()
	s.Accepted = r.U64()
	s.Rejected = r.U64()
	s.TransportErrors = r.U64()
	s.LastClass = attest.Classification(r.U8())
	s.LastFindings = readStrs(r)
	s.LastError = r.Str()
	s.LastAttested = readTime(r)
	s.Breaker = fleet.BreakerState(r.U8())
	s.ConsecutiveTransportFails = readInt(r)
	s.BreakerGen = r.U64()
	return s
}

// writeClassCounts writes a per-classification tally in ascending class
// order. Classification is one byte, so the keys sort on the stack.
func writeClassCounts[V int | uint64](w *wire.Writer, m map[attest.Classification]V) {
	var buf [256]attest.Classification
	classes := buf[:0]
	for c := range m {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	w.U32(uint32(len(classes)))
	for _, c := range classes {
		w.U8(uint8(c))
		w.U64(uint64(m[c]))
	}
}

func readClassCounts[V int | uint64](r *wire.Reader) map[attest.Classification]V {
	n := readCount(r, 1+8)
	if n == 0 {
		return nil
	}
	m := make(map[attest.Classification]V, n)
	var prev attest.Classification
	for i := 0; i < n && r.Err == nil; i++ {
		c := attest.Classification(r.U8())
		if i > 0 && c <= prev {
			r.Fail("class order")
		}
		m[c], prev = V(r.U64()), c
	}
	return m
}

func writeSweepReport(w *wire.Writer, s fleet.SweepReport) {
	w.Buf = append(w.Buf, s.Program[:]...)
	writeWords(w, s.Input)
	w.Bool(s.Streamed)
	writeInt(w, s.Devices)
	writeInt(w, s.Skipped)
	writeInt(w, s.Accepted)
	writeInt(w, s.Rejected)
	writeInt(w, s.Errors)
	writeInt(w, s.Retried)
	writeIDs(w, s.NewlyQuarantined)
	writeIDs(w, s.NewlyTripped)
	writeInt(w, s.BreakerSkipped)
	writeInt(w, s.BreakerProbes)
	writeClassCounts(w, s.ByClass)
	writeInt(w, s.SegmentsVerified)
	writeInt(w, s.EarlyAborts)
	w.U64(uint64(s.Duration))
	writeFloat(w, s.Throughput)
}

func readSweepReport(r *wire.Reader) fleet.SweepReport {
	var s fleet.SweepReport
	readProgramID(r, &s.Program)
	s.Input = readWords(r)
	s.Streamed = r.Bool()
	s.Devices = readInt(r)
	s.Skipped = readInt(r)
	s.Accepted = readInt(r)
	s.Rejected = readInt(r)
	s.Errors = readInt(r)
	s.Retried = readInt(r)
	s.NewlyQuarantined = readIDs(r)
	s.NewlyTripped = readIDs(r)
	s.BreakerSkipped = readInt(r)
	s.BreakerProbes = readInt(r)
	s.ByClass = readClassCounts[int](r)
	s.SegmentsVerified = readInt(r)
	s.EarlyAborts = readInt(r)
	s.Duration = time.Duration(r.U64())
	s.Throughput = readFloat(r)
	return s
}

func writeMetrics(w *wire.Writer, m fleet.MetricsSnapshot) {
	for _, v := range [...]uint64{m.Verified, m.Accepted, m.Rejected, m.Errors, m.Skipped, m.Sweeps} {
		w.U64(v)
	}
	writeClassCounts(w, m.ByClass)
	for _, v := range [...]uint64{m.UnknownClass, m.StreamRounds, m.SegmentsVerified, m.EarlyAborts,
		m.DialFailures, m.Timeouts, m.ConnDrops, m.ProtocolErrors, m.LocalErrors, m.Retries,
		m.BreakerTrips, m.BreakerResets, m.BreakerSkips, m.BreakerProbes} {
		w.U64(v)
	}
	for _, h := range [...]*obs.HistSnapshot{&m.RoundLatency, &m.QueueWait, &m.SegmentVerify, &m.SweepDuration} {
		w.U64(h.Count)
		w.U64(h.Sum)
		w.U32(uint32(len(h.Buckets)))
		for _, b := range h.Buckets {
			w.U64(b.Le)
			w.U64(b.Count)
		}
	}
	w.U64(m.CacheHits)
	w.U64(m.CacheMisses)
	writeFloat(w, m.CacheHitRate)
	writeInt(w, m.Devices)
	writeInt(w, m.Quarantined)
	writeInt(w, m.Tripped)
}

func readMetrics(r *wire.Reader) fleet.MetricsSnapshot {
	var m fleet.MetricsSnapshot
	for _, v := range [...]*uint64{&m.Verified, &m.Accepted, &m.Rejected, &m.Errors, &m.Skipped, &m.Sweeps} {
		*v = r.U64()
	}
	m.ByClass = readClassCounts[uint64](r)
	for _, v := range [...]*uint64{&m.UnknownClass, &m.StreamRounds, &m.SegmentsVerified, &m.EarlyAborts,
		&m.DialFailures, &m.Timeouts, &m.ConnDrops, &m.ProtocolErrors, &m.LocalErrors, &m.Retries,
		&m.BreakerTrips, &m.BreakerResets, &m.BreakerSkips, &m.BreakerProbes} {
		*v = r.U64()
	}
	for _, h := range [...]*obs.HistSnapshot{&m.RoundLatency, &m.QueueWait, &m.SegmentVerify, &m.SweepDuration} {
		h.Count = r.U64()
		h.Sum = r.U64()
		if n := readCount(r, 16); n > 0 {
			h.Buckets = make([]obs.HistBucket, n)
			for i := range h.Buckets {
				h.Buckets[i] = obs.HistBucket{Le: r.U64(), Count: r.U64()}
			}
		}
	}
	m.CacheHits = r.U64()
	m.CacheMisses = r.U64()
	m.CacheHitRate = readFloat(r)
	m.Devices = readInt(r)
	m.Quarantined = readInt(r)
	m.Tripped = readInt(r)
	return m
}

// minEventLen is the smallest writeEvent output.
const minEventLen = 8 + 4 + 4 + 1 + 4 + 4 + 8

func writeEvent(w *wire.Writer, e obs.Event) {
	w.U64(e.Seq)
	writeTime(w, e.Time)
	w.Str(e.Device)
	w.U8(uint8(e.Kind))
	w.Str(e.Class)
	w.Str(e.Detail)
	w.U64(e.Sweep)
}

func readEvent(r *wire.Reader) obs.Event {
	var e obs.Event
	e.Seq = r.U64()
	e.Time = readTime(r)
	e.Device = r.Str()
	e.Kind = obs.EventKind(r.U8())
	e.Class = r.Str()
	e.Detail = r.Str()
	e.Sweep = r.U64()
	return e
}

// exchange runs one request/response round trip on conn with per-phase
// deadlines. The error is a *attest.TransportError when the bytes could
// not be moved (retryable, breaker evidence), a *NodeError when the
// node answered with a refusal or in another payload version, and plain
// otherwise.
func exchange(conn io.ReadWriter, to attest.Timeouts, node NodeID, reqTyp byte, req any, respTyp byte, resp any) error {
	payload, err := encodePayload(req)
	if err != nil {
		return err
	}
	to.ArmWrite(conn)
	if err := attest.WriteFrame(conn, reqTyp, payload); err != nil {
		to.Disarm(conn)
		return err
	}
	to.ArmRead(conn)
	typ, body, err := attest.ReadFrame(conn)
	to.Disarm(conn)
	if err != nil {
		return err
	}
	switch typ {
	case respTyp:
		err := decodePayload(body, resp)
		if errors.Is(err, errCtrlVersion) {
			return &NodeError{Node: node, Msg: err.Error()}
		}
		return err
	case msgErr:
		return &NodeError{Node: node, Msg: string(body)}
	default:
		return fmt.Errorf("fed: node %s: expected frame type %d, got %d", node, respTyp, typ)
	}
}

// writeErr answers a request with a refusal frame.
func writeErr(conn io.ReadWriter, err error) error {
	return attest.WriteFrame(conn, msgErr, []byte(err.Error()))
}

// writeResp answers a request with an encoded response frame.
func writeResp(conn io.ReadWriter, typ byte, v any) error {
	payload, err := encodePayload(v)
	if err != nil {
		return err
	}
	return attest.WriteFrame(conn, typ, payload)
}
