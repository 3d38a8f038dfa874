package fed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lofat/internal/attest"
	"lofat/internal/fleet"
	"lofat/internal/wire"
)

func testRecord(i int) DeviceRecord {
	rec := DeviceRecord{
		ID:                 fleet.DeviceID("dev-" + string(rune('a'+i%26))),
		Addr:               "mem://host/x",
		Quarantined:        i%2 == 0,
		ConsecutiveRejects: uint32(i),
		Rounds:             uint64(i * 7),
		Accepted:           uint64(i * 5),
		Rejected:           uint64(i * 2),
		TransportErrors:    uint64(i),
		LastClass:          attest.ClassLoopCounter,
		Breaker:            fleet.BreakerDegraded,
		TransportFails:     uint32(i % 3),
		BreakerGen:         uint64(i * 11),
	}
	for j := range rec.Program {
		rec.Program[j] = byte(i + j)
	}
	for j := range rec.Pub {
		rec.Pub[j] = byte(i ^ j)
	}
	return rec
}

// recordBody encodes one WAL record body on its own.
func recordBody(rec WALRecord) []byte {
	var w wire.Writer
	encodeRecordBody(&w, rec)
	return w.Buf
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []WALRecord{
		{Kind: recUpsert, Device: testRecord(3)},
		{Kind: recForget, ID: "dev-b"},
		{Kind: recQuarantine, ID: "dev-c", On: true},
		{Kind: recQuarantine, ID: "dev-c", On: false},
		{Kind: recCacheKey, Key: "aa|{...}|bb"},
		{Kind: recSweepGen, Gen: 42},
	}
	for _, rec := range recs {
		body := recordBody(rec)
		got, err := decodeRecordBody(body)
		if err != nil {
			t.Fatalf("kind %d: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", rec.Kind, got, rec)
		}
	}
}

func TestWALRecordDecodeRejectsDamage(t *testing.T) {
	body := recordBody(WALRecord{Kind: recUpsert, Device: testRecord(1)})
	if _, err := decodeRecordBody(body[:len(body)-3]); err == nil {
		t.Fatal("truncated record body decoded silently")
	}
	if _, err := decodeRecordBody(append(body, 0)); err == nil {
		t.Fatal("trailing bytes decoded silently")
	}
	if _, err := decodeRecordBody([]byte{99}); err == nil {
		t.Fatal("unknown record kind decoded silently")
	}
}

func testState() *State {
	s := NewState("node-1")
	s.SweepGen = 9
	for i := 0; i < 5; i++ {
		d := testRecord(i)
		s.Devices[d.ID] = d
	}
	s.CacheKeys["k1"] = struct{}{}
	s.CacheKeys["k2"] = struct{}{}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testState()
	img := EncodeSnapshot(s)
	got, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
	}
	// Canonical: identical state → identical bytes.
	if !bytes.Equal(img, EncodeSnapshot(s.Clone())) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	img := EncodeSnapshot(testState())

	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := DecodeSnapshot(flipped); err == nil {
		t.Fatal("bit-flipped snapshot loaded silently")
	}

	if _, err := DecodeSnapshot(img[:len(img)-5]); err == nil {
		t.Fatal("truncated snapshot loaded silently")
	}

	badMagic := append([]byte(nil), img...)
	badMagic[0] = 'X'
	if _, err := DecodeSnapshot(badMagic); err == nil {
		t.Fatal("bad-magic snapshot loaded silently")
	}

	// Mixed-version: bump the version field and re-seal the checksum so
	// only the version check can refuse it.
	future := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(future[len(snapshotMagic):], SnapshotVersion+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.Checksum(future[:len(future)-4], crcTable))
	if _, err := DecodeSnapshot(future); err == nil {
		t.Fatal("future-version snapshot loaded silently")
	}
}

func TestStateApplyQuarantineRelease(t *testing.T) {
	s := NewState("n")
	d := testRecord(2)
	d.Quarantined = true
	d.ConsecutiveRejects = 3
	d.Breaker = fleet.BreakerTripped
	d.TransportFails = 4
	s.Apply(WALRecord{Kind: recUpsert, Device: d})
	s.Apply(WALRecord{Kind: recQuarantine, ID: d.ID, On: false})
	got := s.Devices[d.ID]
	if got.Quarantined || got.ConsecutiveRejects != 0 || got.TransportFails != 0 || got.Breaker != fleet.BreakerHealthy {
		t.Fatalf("release did not clear streaks/breaker: %+v", got)
	}
	s.Apply(WALRecord{Kind: recForget, ID: d.ID})
	if _, ok := s.Devices[d.ID]; ok {
		t.Fatal("forget did not remove the device")
	}
}

// --- store-level recovery ---

func writeStoreWAL(t *testing.T, dir string, recs ...WALRecord) string {
	t.Helper()
	st, _, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return walPath(dir, 0)
}

func TestStoreReplayAndCompact(t *testing.T) {
	dir := t.TempDir()
	st, state, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Devices) != 0 {
		t.Fatal("fresh store not empty")
	}
	d := testRecord(1)
	for _, rec := range []WALRecord{
		{Kind: recUpsert, Device: d},
		{Kind: recCacheKey, Key: "k"},
		{Kind: recSweepGen, Gen: 3},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, recovered, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered.Devices[d.ID], d) || recovered.SweepGen != 3 {
		t.Fatalf("replayed state wrong: %+v", recovered)
	}
	if _, ok := recovered.CacheKeys["k"]; !ok {
		t.Fatal("cache key lost in replay")
	}

	// Compact, append more, reopen: snapshot + fresh WAL must compose.
	if err := st2.Compact(recovered); err != nil {
		t.Fatal(err)
	}
	if st2.Generation() != 1 || st2.Records() != 0 {
		t.Fatalf("compaction bookkeeping: gen=%d records=%d", st2.Generation(), st2.Records())
	}
	d2 := testRecord(2)
	if err := st2.Append(WALRecord{Kind: recUpsert, Device: d2}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered2, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered2.Devices) != 2 || !reflect.DeepEqual(recovered2.Devices[d2.ID], d2) {
		t.Fatalf("post-compaction recovery wrong: %+v", recovered2)
	}
}

func TestStoreTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	d := testRecord(1)
	path := writeStoreWAL(t, dir,
		WALRecord{Kind: recUpsert, Device: d},
		WALRecord{Kind: recSweepGen, Gen: 7})

	// Sever the final record mid-body — the crash artifact.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st, state, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	if !reflect.DeepEqual(state.Devices[d.ID], d) {
		t.Fatal("consistent prefix lost")
	}
	if state.SweepGen != 0 {
		t.Fatal("torn record must not half-apply")
	}
	// The tail must be truncated so new appends produce a valid log.
	if err := st.Append(WALRecord{Kind: recSweepGen, Gen: 9}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, state2, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	if state2.SweepGen != 9 || !reflect.DeepEqual(state2.Devices[d.ID], d) {
		t.Fatalf("post-truncation append lost: %+v", state2)
	}
}

func TestStoreCorruptRecordFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := writeStoreWAL(t, dir,
		WALRecord{Kind: recUpsert, Device: testRecord(1)},
		WALRecord{Kind: recSweepGen, Gen: 7})

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's body: a complete record
	// whose checksum no longer matches — disk damage, not a torn tail.
	img[walHeaderLen+recHeaderLen+4] ^= 0xFF
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(dir, "n")
	if err == nil {
		t.Fatal("corrupted WAL record opened silently")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not tagged ErrCorrupt: %v", err)
	}
}

func TestStoreVersionMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := writeStoreWAL(t, dir, WALRecord{Kind: recSweepGen, Gen: 1})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(img[len(walMagic):], SnapshotVersion+1)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, "n"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-version WAL: want ErrCorrupt, got %v", err)
	}
}

func TestStoreCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, state, err := OpenStore(dir, "n")
	if err != nil {
		t.Fatal(err)
	}
	state.Devices["d"] = testRecord(1)
	if err := st.Compact(state); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 1)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xFF
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, "n"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: want ErrCorrupt, got %v", err)
	}
}

func TestStoreRejectsForeignNode(t *testing.T) {
	dir := t.TempDir()
	st, state, err := OpenStore(dir, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(state); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, "n2"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign node dir: want ErrCorrupt, got %v", err)
	}
	if _, _, err := OpenStore(filepath.Join(dir, "fresh"), "n2"); err != nil {
		t.Fatalf("fresh subdir: %v", err)
	}
}
