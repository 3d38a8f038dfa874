package fed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lofat/internal/wire"
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
		body := encodeRecordBody(rec)
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
	body := encodeRecordBody(WALRecord{Kind: recSweepGen, Gen: 3})
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
