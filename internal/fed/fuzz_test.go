package fed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lofat/internal/core"
	"lofat/internal/fleet"
	"lofat/internal/wire"
	"lofat/internal/workloads"
)

// FuzzWALReplay feeds arbitrary bytes to the WAL recovery path. The
// contract under fuzzing: replay either recovers a consistent prefix
// (never a half-applied record) or fails loudly with ErrCorrupt — it
// must not panic, must not loop, and must never silently succeed on a
// log whose complete records are damaged.
func FuzzWALReplay(f *testing.F) {
	var valid wire.Writer
	valid.Buf = append(valid.Buf, walMagic...)
	valid.U16(SnapshotVersion)
	for _, rec := range []WALRecord{
		{Kind: recUpsert, Device: testRecord(1)},
		{Kind: recQuarantine, ID: "dev-b", On: true},
		{Kind: recCacheKey, Key: "k"},
		{Kind: recSweepGen, Gen: 5},
	} {
		body := recordBody(rec)
		valid.U32(uint32(len(body)))
		valid.U32(crc32.Checksum(body, crcTable))
		valid.Buf = append(valid.Buf, body...)
	}
	f.Add(valid.Buf)
	f.Add(valid.Buf[:len(valid.Buf)-3]) // torn tail
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid.Buf...)
	mutated[walHeaderLen+recHeaderLen+2] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		state := NewState("n")
		prefix, records, err := replayWAL(bytes.NewReader(data), state)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay error not tagged ErrCorrupt: %v", err)
			}
			return
		}
		if prefix < int64(walHeaderLen) || prefix > int64(len(data)) {
			t.Fatalf("prefix %d out of range (len %d)", prefix, len(data))
		}
		// The accepted prefix must itself replay to the same state: the
		// recovery fixed point.
		state2 := NewState("n")
		prefix2, records2, err2 := replayWAL(bytes.NewReader(data[:prefix]), state2)
		if err2 != nil || prefix2 != prefix || records2 != records {
			t.Fatalf("recovered prefix is not self-consistent: %v (prefix %d vs %d)", err2, prefix2, prefix)
		}
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes to the snapshot loader: it
// must reject everything that is not exactly a sealed snapshot, and
// round-trip what is.
func FuzzSnapshotLoad(f *testing.F) {
	f.Add(EncodeSnapshot(testState()))
	f.Add(EncodeSnapshot(NewState("n")))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	future := EncodeSnapshot(NewState("n"))
	binary.LittleEndian.PutUint16(future[len(snapshotMagic):], SnapshotVersion+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.Checksum(future[:len(future)-4], crcTable))
	f.Add(future)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode to the identical image: the
		// checksum plus canonical encoding leave no room for two
		// interpretations of one file.
		if !bytes.Equal(EncodeSnapshot(s), data) {
			t.Fatalf("accepted snapshot is not canonical")
		}
	})
}

// FuzzStoreOpen drives the full OpenStore path with a fuzzed WAL file
// on disk — the integration of header validation, replay, torn-tail
// truncation and append repositioning.
func FuzzStoreOpen(f *testing.F) {
	var valid wire.Writer
	valid.Buf = append(valid.Buf, walMagic...)
	valid.U16(SnapshotVersion)
	body := recordBody(WALRecord{Kind: recSweepGen, Gen: 3})
	valid.U32(uint32(len(body)))
	valid.U32(crc32.Checksum(body, crcTable))
	valid.Buf = append(valid.Buf, body...)
	f.Add(valid.Buf)
	f.Add(valid.Buf[:len(valid.Buf)-2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := OpenStore(dir, "n")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open error not tagged ErrCorrupt: %v", err)
			}
			return
		}
		// A store that opened must accept appends and reopen cleanly.
		if err := st.Append(WALRecord{Kind: recSweepGen, Gen: 9}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, state, err := OpenStore(dir, "n"); err != nil {
			t.Fatalf("reopen after append: %v", err)
		} else if state.SweepGen != 9 {
			t.Fatalf("appended record lost: gen %d", state.SweepGen)
		}
	})
}

// frameTap records the type and payload of every control-plane frame
// written through it (the frame layer writes one frame per Write).
type frameTap struct {
	net.Conn
	log *frameLog
}

type frameLog struct {
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	typ     byte
	payload []byte
}

func (c frameTap) Write(p []byte) (int, error) {
	if len(p) >= 5 {
		c.log.mu.Lock()
		c.log.frames = append(c.log.frames, tappedFrame{p[0], append([]byte(nil), p[5:]...)})
		c.log.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// payloadFor returns a fresh payload of the type frame typ carries, or
// nil for msgErr and unknown types.
func payloadFor(typ byte) any {
	switch typ {
	case msgRegister:
		return new(registerReq)
	case msgEnroll:
		return new(enrollReq)
	case msgSweep:
		return new(sweepReq)
	case msgTransfer, msgRelease, msgGet:
		return new(deviceReq)
	case msgSync:
		return new(syncReq)
	case msgFetch:
		return new(fetchReq)
	case msgRecords:
		return new(recordsResp)
	case msgOK:
		return new(okResp)
	case msgReport:
		return new(NodeReport)
	case msgState:
		return new(stateResp)
	}
	return nil
}

// tapFederation runs a small federation of the benchmark's fed_r2_disk
// shape — three nodes with on-disk stores, two replicas, a loop-counter
// attacker among honest devices — through one sweep plus a release, a
// device query, an anti-entropy fetch and a transfer, and returns every
// control-plane frame both sides wrote.
func tapFederation(t testing.TB) []tappedFrame {
	log := &frameLog{}
	f := newFabric()
	coord := NewCoordinator(Config{Replicas: 2})
	defer coord.Close()
	for i := 0; i < 3; i++ {
		tn := newTestNode(t, NodeConfig{ID: NodeID(fmt.Sprintf("node-%d", i)), Dir: t.TempDir(), Fleet: fleet.Config{Dial: f.dial}})
		defer tn.close()
		dial := func() (io.ReadWriteCloser, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				_ = tn.node.ServeConn(frameTap{server, log})
			}()
			return frameTap{client, log}, nil
		}
		if _, err := coord.Join(tn.node.ID(), dial); err != nil {
			t.Fatal(err)
		}
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
	ids := make([]fleet.DeviceID, 6)
	for i := range ids {
		ids[i] = fleet.DeviceID(fmt.Sprintf("dev-%02d", i))
		if err := coord.Enroll(ids[i], pid, pub, addr); err != nil {
			t.Fatal(err)
		}
	}
	atk, atkPub, atkAddr := spawnAttacked(t, f, pump, "loop-counter", 0)
	if err := coord.Enroll(atk, pid, atkPub, atkAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sweep(pid, pump.Input, false); err != nil {
		t.Fatal(err)
	}
	if err := coord.Release(atk); err != nil {
		t.Fatal(err)
	}
	_, owner, err := coord.Device(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	nc := coord.clients[owner]
	if _, err := ask[recordsResp](coord, nc, msgFetch, fetchReq{Devices: ids}, msgRecords); err != nil {
		t.Fatal(err)
	}
	if _, err := ask[stateResp](coord, nc, msgTransfer, deviceReq{Device: ids[0]}, msgState); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return log.frames
}

// FuzzFedFrame feeds arbitrary payloads to the control-plane decoder
// under an arbitrary frame type. Property: no panic, and any payload
// that decodes re-encodes to the identical bytes — the codec admits one
// encoding per value. Seeds are every frame of a real federation run.
func FuzzFedFrame(f *testing.F) {
	seen := make(map[string]bool)
	for _, fr := range tapFederation(f) {
		if fr.typ == msgErr {
			f.Fatalf("scenario refused a request: %s", fr.payload)
		}
		seen[fmt.Sprintf("%T", payloadFor(fr.typ))] = true
		f.Add(fr.typ, fr.payload)
	}
	for _, tc := range payloadCases() {
		if !seen[fmt.Sprintf("*fed.%s", tc.name)] {
			f.Errorf("scenario wrote no %s frame", tc.name)
		}
	}

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		v := payloadFor(32 + typ%16)
		if v == nil {
			return
		}
		if err := decodePayload(payload, v); err != nil {
			return
		}
		again, err := encodePayload(reflect.ValueOf(v).Elem().Interface())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("decoded %T re-encodes differently:\n in  %x\n out %x", v, payload, again)
		}
	})
}
