package fed

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/filter"
	"lofat/internal/fleet"
	"lofat/internal/hashengine"
	"lofat/internal/monitor"
	"lofat/internal/obs"
	"lofat/internal/wire"
	"lofat/internal/workloads"
)

// payloadCase is one control-plane payload shape: a value with every
// field set, and its typed decoder.
type payloadCase struct {
	name   string
	in     any
	decode func(r *wire.Reader) any
}

// testDeviceState and the records below use testRecord indices that
// leave no field zero (even i quarantines, i%3 != 0 sets the streak).
func testDeviceState(i int) fleet.DeviceState {
	st := testRecord(i).State()
	st.LastFindings = []string{"loop counter diverged", "path 3 unseen"}
	st.LastError = "dial: refused"
	st.LastAttested = time.Unix(1_700_000_000+int64(i), 123456789)
	return st
}

func testHist(seed uint64) obs.HistSnapshot {
	return obs.HistSnapshot{Count: seed, Sum: seed * 1000, Buckets: []obs.HistBucket{{Le: 1023, Count: seed - 1}, {Le: 2047, Count: 1}}}
}

// payloadCases covers all ten payload shapes, every field non-zero.
func payloadCases() []payloadCase {
	pid := testRecord(4).Program
	return []payloadCase{
		{"registerReq", registerReq{
			Prog: &asm.Program{
				TextBase: 0x1000, Text: []byte{0x13, 0, 0, 0, 0x6f, 0, 0, 0},
				DataBase: 0x8000, Data: []byte{1, 2, 3},
				Labels:  map[string]uint32{"main": 0x1000, "loop": 0x1004, "done": 0x1008},
				LineFor: map[uint32]int{0x1000: 3, 0x1004: 7},
			},
			DevCfg: core.Config{
				Filter:            filter.Config{MaxDepth: 3},
				Monitor:           monitor.Config{MaxBranchesPerPath: 16, IndirectBits: 4, DisableDedup: true},
				Engine:            hashengine.Config{FIFODepth: 4, PairsPerBlock: 9, BusyCycles: 3},
				Region:            core.Region{Start: 0x1000, End: 0x1008},
				BranchTrackCycles: 2, LoopExitCycles: 5,
				IRQ: cpu.IRQSchedule{Vector: 0x1010, Phase: 100, Period: 500, Count: 3},
			},
			Inputs: [][]uint32{{1, 2, 3}, {4}},
		}, func(r *wire.Reader) any { return decodeRegisterReq(r) }},
		{"enrollReq", enrollReq{State: testDeviceState(2)},
			func(r *wire.Reader) any { return decodeEnrollReq(r) }},
		{"sweepReq", sweepReq{Program: pid, Input: []uint32{5, 6, 7}, Streamed: true,
			Devices: []fleet.DeviceID{"pump-1", "pump-2"}, WantDelta: true},
			func(r *wire.Reader) any { return decodeSweepReq(r) }},
		{"deviceReq", deviceReq{Device: "pump-7"},
			func(r *wire.Reader) any { return decodeDeviceReq(r) }},
		{"syncReq", syncReq{Records: []DeviceRecord{testRecord(2), testRecord(4)}},
			func(r *wire.Reader) any { return decodeSyncReq(r) }},
		{"fetchReq", fetchReq{Devices: []fleet.DeviceID{"a", "b", "c"}},
			func(r *wire.Reader) any { return decodeFetchReq(r) }},
		{"recordsResp", recordsResp{Records: []DeviceRecord{testRecord(8), testRecord(10)}},
			func(r *wire.Reader) any { return decodeRecordsResp(r) }},
		{"okResp", okResp{Node: "node-3", Program: pid},
			func(r *wire.Reader) any { return decodeOKResp(r) }},
		{"stateResp", stateResp{Found: true, State: testDeviceState(4)},
			func(r *wire.Reader) any { return decodeStateResp(r) }},
		{"NodeReport", NodeReport{
			Node: "node-1", Skipped: true, Probe: true, Err: "wave 2 lost", Attempts: 2, Devices: 64,
			Report: fleet.SweepReport{
				Program: pid, Input: []uint32{9, 8}, Streamed: true,
				Devices: 32, Skipped: 2, Accepted: 27, Rejected: 2, Errors: 1, Retried: 3,
				NewlyQuarantined: []fleet.DeviceID{"atk-1", "atk-2"},
				NewlyTripped:     []fleet.DeviceID{"flaky-1", "flaky-2"},
				BreakerSkipped:   1, BreakerProbes: 1,
				ByClass:          map[attest.Classification]int{attest.ClassAccepted: 27, attest.ClassLoopCounter: 2},
				SegmentsVerified: 40, EarlyAborts: 2,
				Duration: 25 * time.Millisecond, Throughput: 1234.5,
			},
			Metrics: fleet.MetricsSnapshot{
				Verified: 1, Accepted: 2, Rejected: 3, Errors: 4, Skipped: 5, Sweeps: 6,
				ByClass:      map[attest.Classification]uint64{attest.ClassAccepted: 7, attest.ClassLoopCounter: 8},
				UnknownClass: 9, StreamRounds: 10, SegmentsVerified: 11, EarlyAborts: 12,
				DialFailures: 13, Timeouts: 14, ConnDrops: 15, ProtocolErrors: 16, LocalErrors: 17, Retries: 18,
				BreakerTrips: 19, BreakerResets: 20, BreakerSkips: 21, BreakerProbes: 22,
				RoundLatency: testHist(23), QueueWait: testHist(24), SegmentVerify: testHist(25), SweepDuration: testHist(26),
				CacheHits: 27, CacheMisses: 28, CacheHitRate: 0.491, Devices: 64, Quarantined: 2, Tripped: 1,
			},
			Flight: []obs.Event{
				{Seq: 1, Time: time.Unix(1_700_000_000, 5), Device: "atk-1", Kind: obs.KindQuarantine, Class: "loop-counter", Detail: "rejected", Sweep: 3},
				{Seq: 2, Time: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), Device: "flaky-1", Kind: obs.KindTransportError, Class: "timeout", Detail: "read", Sweep: 3},
			},
			LameDuck: true, StoreErr: "wal sync: EIO",
			Changed: []DeviceRecord{testRecord(14), testRecord(16)},
		}, func(r *wire.Reader) any { return decodeNodeReport(r) }},
	}
}

// requireNonZero fails on any zero field, empty slice or map, or map of
// fewer than two entries reachable from v, so a field the codec forgets
// cannot hide behind its zero value in a round trip.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.IsZero() {
		t.Errorf("%s is zero", path)
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		requireNonZero(t, path, v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if v.Type().Elem().Kind() != reflect.Uint8 {
				requireNonZero(t, path+"[i]", v.Index(i))
			}
		}
	case reflect.Map:
		if v.Len() < 2 {
			t.Errorf("%s has %d entries, want at least 2", path, v.Len())
		}
	}
}

// TestPayloadRoundTrip drives every control-plane payload shape through
// encodePayload, then decodePayload and its typed decoder, and requires
// the decoded value to match exactly and to re-encode to the same bytes.
func TestPayloadRoundTrip(t *testing.T) {
	for _, tc := range payloadCases() {
		t.Run(tc.name, func(t *testing.T) {
			v := reflect.ValueOf(tc.in)
			requireNonZero(t, tc.name, v)
			b, err := encodePayload(tc.in)
			if err != nil {
				t.Fatalf("encodePayload: %v", err)
			}
			got := reflect.New(v.Type())
			if err := decodePayload(b, got.Interface()); err != nil {
				t.Fatalf("decodePayload: %v", err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), tc.in) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Elem().Interface(), tc.in)
			}
			r := &wire.Reader{Buf: b, Off: 1}
			if typed := tc.decode(r); r.Finish(tc.name) != nil || !reflect.DeepEqual(typed, tc.in) {
				t.Fatalf("typed decoder: %v, got %+v", r.Finish(tc.name), typed)
			}
			again, err := encodePayload(got.Elem().Interface())
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("re-encode differs (%v)", err)
			}
		})
	}
}

// TestSweepReqHealthProbe pins the health-probe rule sweepReq documents:
// a nil and an empty acting set encode alike and decode with no devices.
func TestSweepReqHealthProbe(t *testing.T) {
	for _, devs := range [][]fleet.DeviceID{nil, {}} {
		b, err := encodePayload(sweepReq{Devices: devs})
		if err != nil {
			t.Fatal(err)
		}
		var got sweepReq
		if err := decodePayload(b, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Devices) != 0 {
			t.Fatalf("acting set %v decoded as %v", devs, got.Devices)
		}
	}
}

// TestDecodePayloadCorrupt requires decodePayload to fail cleanly, not
// panic, on every proper prefix of every payload shape, on trailing
// bytes, on a foreign version byte and on garbage.
func TestDecodePayloadCorrupt(t *testing.T) {
	for _, tc := range payloadCases() {
		t.Run(tc.name, func(t *testing.T) {
			b, err := encodePayload(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			typ := reflect.TypeOf(tc.in)
			for cut := 0; cut < len(b); cut++ {
				if err := decodePayload(b[:cut], reflect.New(typ).Interface()); err == nil {
					t.Fatalf("accepted %d/%d truncated bytes", cut, len(b))
				}
			}
			if err := decodePayload(append(b[:len(b):len(b)], 0), reflect.New(typ).Interface()); err == nil {
				t.Fatal("accepted a trailing byte")
			}
			skewed := append([]byte{ctrlVersion + 1}, b[1:]...)
			if err := decodePayload(skewed, reflect.New(typ).Interface()); !errors.Is(err, errCtrlVersion) {
				t.Fatalf("foreign version: %v, want errCtrlVersion", err)
			}
		})
	}
	if err := decodePayload([]byte("\x01not a payload"), new(sweepReq)); err == nil {
		t.Error("decodePayload accepted garbage")
	}

	// Map entries out of key order are a second encoding of the same
	// program: swap the two label entries and the decode must fail.
	prog := registerReq{Prog: &asm.Program{Labels: map[string]uint32{"a": 1, "b": 2}}}
	b, err := encodePayload(prog)
	if err != nil {
		t.Fatal(err)
	}
	var entry wire.Writer
	entry.Str("a")
	entry.U32(1)
	first := len(entry.Buf)
	entry.Str("b")
	entry.U32(2)
	sorted := entry.Buf
	swapped := append(append([]byte(nil), sorted[first:]...), sorted[:first]...)
	if !bytes.Contains(b, sorted) {
		t.Fatal("label entries not found in the encoding")
	}
	if err := decodePayload(bytes.Replace(b, sorted, swapped, 1), new(registerReq)); err == nil {
		t.Error("decodePayload accepted labels out of key order")
	}
}

// skewConn stamps a foreign version byte on every frame of type typ
// written through it: a peer from another build, as far as the
// receiving side can tell.
type skewConn struct {
	net.Conn
	typ *atomic.Uint32
}

func (c skewConn) Write(p []byte) (int, error) {
	if len(p) > 5 && uint32(p[0]) == c.typ.Load() {
		p = append([]byte(nil), p...)
		p[5] = ctrlVersion + 1
	}
	return c.Conn.Write(p)
}

// TestCtrlVersionMismatch pins the version rule on both sides of the
// control plane: a request in a foreign version is refused with msgErr
// and never applied, a response in a foreign version is refused by the
// coordinator, both surface as a *NodeError, and neither is a transport
// strike against the node breaker.
func TestCtrlVersionMismatch(t *testing.T) {
	f := newFabric()
	tn := newTestNode(t, NodeConfig{ID: "node-0", Fleet: fleet.Config{Dial: f.dial}})
	defer tn.close()
	var reqSkew, respSkew atomic.Uint32
	dial := func() (io.ReadWriteCloser, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			_ = tn.node.ServeConn(skewConn{server, &respSkew})
		}()
		return skewConn{client, &reqSkew}, nil
	}
	coord := NewCoordinator(Config{BreakerThreshold: 1})
	defer coord.Close()
	if _, err := coord.Join("node-0", dial); err != nil {
		t.Fatal(err)
	}
	pump := workloads.SyringePump()
	prog, err := pump.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := coord.RegisterProgram(prog, core.Config{}, [][]uint32{pump.Input})
	if err != nil {
		t.Fatal(err)
	}
	pub, addr := spawnHonestEndpoint(t, f, pump, "honest")

	reqSkew.Store(uint32(msgEnroll))
	err = coord.Enroll("dev-0", pid, pub, addr)
	var ne *NodeError
	if !errors.As(err, &ne) || !strings.Contains(ne.Msg, "version") {
		t.Fatalf("skewed enroll request: %v, want a version *NodeError", err)
	}
	if n := tn.node.Service().FleetSize(); n != 0 {
		t.Fatalf("skewed enroll request was applied: %d devices", n)
	}
	reqSkew.Store(0)
	if err := coord.Enroll("dev-0", pid, pub, addr); err != nil {
		t.Fatal(err)
	}

	for _, skew := range []struct {
		name string
		side *atomic.Uint32
		typ  byte
	}{{"request", &reqSkew, msgSweep}, {"response", &respSkew, msgReport}} {
		skew.side.Store(uint32(skew.typ))
		v, err := coord.Sweep(pid, pump.Input, false)
		skew.side.Store(0)
		if err != nil {
			t.Fatal(err)
		}
		if v.NodesFailed != 1 || len(v.Nodes) != 1 || !strings.Contains(v.Nodes[0].Err, "version") || v.Nodes[0].Attempts != 1 {
			t.Fatalf("skewed sweep %s: %s %+v", skew.name, v, v.Nodes)
		}
		if br, _ := coord.NodeBreaker("node-0"); br != fleet.BreakerHealthy {
			t.Fatalf("skewed sweep %s struck the node breaker: %v", skew.name, br)
		}
	}
	if st, _ := tn.node.Service().Device("dev-0"); st.Rounds != 1 {
		t.Fatalf("device attested %d times, want once: the skewed request must not run", st.Rounds)
	}
	v, err := coord.Sweep(pid, pump.Input, false)
	if err != nil || v.NodesOK != 1 || v.Accepted != 1 {
		t.Fatalf("sweep after the skew: %v %v", v, err)
	}
}
