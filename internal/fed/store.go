package fed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lofat/internal/fed/faultfs"
	"lofat/internal/wire"
)

// Store is a node's durability layer: a directory holding generations
// of snapshot files plus the append-only WAL written since the latest
// snapshot.
//
//	snap-00000003.lfed   snapshot generation 3 (schema-versioned, CRC'd)
//	wal-00000003.log     records appended since snapshot 3
//
// OpenStore loads the newest valid snapshot and replays its paired WAL
// on top, yielding the warm-restart state. Crash-recovery contract:
//
//   - a torn tail — the final WAL record cut short mid-append by the
//     crash — is expected damage: replay stops at the last complete,
//     checksummed record and the file is truncated to that consistent
//     prefix before appends resume;
//   - a checksum mismatch on a *complete* record, a bad header, or an
//     unknown schema version is NOT expected damage: it means the log
//     no longer says what was written, and the store refuses to open
//     rather than silently dropping quarantine or breaker state.
//
// Compact writes a new snapshot generation (write-to-temp, fsync,
// rename) and starts a fresh WAL; the previous generation is kept as a
// fallback and older ones removed.
type Store struct {
	fs      faultfs.FS
	dir     string
	wal     faultfs.File
	walLen  int64  // bytes of durable, validated WAL content
	gen     uint64 // current snapshot/WAL generation
	records int    // records appended to the current WAL
	buf     []byte // Append's scratch, reused across batches
	closed  bool
}

// ErrCorrupt tags unrecoverable persistence damage (distinct from the
// torn tail, which recovery handles silently). errors.Is(err,
// ErrCorrupt) holds for every such failure out of OpenStore.
var ErrCorrupt = errors.New("fed: persistent state corrupt")

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.lfed", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

// walHeaderLen is magic + u16 version.
const walHeaderLen = len(walMagic) + 2

// recHeaderLen is u32 len + u32 crc.
const recHeaderLen = 8

// OpenStore opens (creating if needed) the store in dir and returns it
// together with the recovered state: the newest valid snapshot with its
// WAL replayed on top, or an empty state for a fresh directory. node
// names the owner; opening a directory persisted by a different node ID
// fails loudly (two nodes sharing a directory is operator error).
func OpenStore(dir string, node NodeID) (*Store, *State, error) {
	return OpenStoreFS(faultfs.OS{}, dir, node)
}

// OpenStoreFS is OpenStore against an explicit filesystem — the real
// one in production, a faultfs.Injector under chaos tests.
func OpenStoreFS(fsys faultfs.FS, dir string, node NodeID) (*Store, *State, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("fed: store: %w", err)
	}
	gens, err := snapshotGenerations(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	// A crash between CreateTemp and the rename in Compact leaves a
	// stale snap-*.tmp: never-published garbage. Sweep it now so the
	// directory only ever holds files the recovery contract covers.
	if ents, err := fsys.ReadDir(dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp") {
				fsys.Remove(filepath.Join(dir, name))
			}
		}
	}
	state := NewState(node)
	st := &Store{fs: fsys, dir: dir}
	// Newest snapshot first; an unreadable snapshot file is corruption,
	// not an invitation to fall back silently.
	if len(gens) > 0 {
		st.gen = gens[len(gens)-1]
		img, err := fsys.ReadFile(snapPath(dir, st.gen))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: read snapshot %d: %v", ErrCorrupt, st.gen, err)
		}
		state, err = DecodeSnapshot(img)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot %d: %v", ErrCorrupt, st.gen, err)
		}
		if state.Node != node {
			return nil, nil, fmt.Errorf("%w: snapshot %d belongs to node %q, not %q", ErrCorrupt, st.gen, state.Node, node)
		}
	}
	if err := st.openWAL(state); err != nil {
		return nil, nil, err
	}
	return st, state, nil
}

// openWAL opens (creating if absent) the current generation's WAL,
// replays it onto state, truncates a torn tail, and leaves the file
// positioned for appends.
func (s *Store) openWAL(state *State) error {
	path := walPath(s.dir, s.gen)
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("fed: store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("fed: store: %w", err)
	}
	if info.Size() < int64(walHeaderLen) {
		// Fresh WAL — or the header write itself torn by a crash. A
		// strict prefix of the expected header is a crash artifact, so
		// rewind and stamp a fresh one; any other bytes are damage.
		var w wire.Writer
		w.Buf = append(w.Buf, walMagic...)
		w.U16(SnapshotVersion)
		if info.Size() > 0 {
			got := make([]byte, info.Size())
			if _, err := io.ReadFull(f, got); err != nil {
				f.Close()
				return fmt.Errorf("fed: store: %w", err)
			}
			if !bytes.Equal(got, w.Buf[:len(got)]) {
				f.Close()
				return fmt.Errorf("%w: wal: %d-byte file is not a header prefix", ErrCorrupt, info.Size())
			}
			if err := f.Truncate(0); err != nil {
				f.Close()
				return fmt.Errorf("fed: store: %w", err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("fed: store: %w", err)
			}
		}
		if _, err := f.Write(w.Buf); err != nil {
			f.Close()
			return fmt.Errorf("fed: store: write wal header: %w", err)
		}
		s.wal, s.walLen = f, int64(walHeaderLen)
		return nil
	}
	n, records, err := replayWAL(f, state)
	if err != nil {
		f.Close()
		return err
	}
	if n < info.Size() {
		// Torn tail: cut the file back to the validated prefix so the
		// next append does not graft onto garbage.
		if err := f.Truncate(n); err != nil {
			f.Close()
			return fmt.Errorf("fed: store: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(n, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("fed: store: %w", err)
	}
	s.wal, s.walLen, s.records = f, n, records
	return nil
}

// replayWAL applies every complete, checksummed record to state and
// returns the byte length of the consistent prefix. A record cut short
// by EOF is the torn tail and ends replay silently; a complete record
// whose checksum or encoding is wrong is corruption and fails.
func replayWAL(r io.Reader, state *State) (prefix int64, records int, err error) {
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, fmt.Errorf("%w: wal header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return 0, 0, fmt.Errorf("%w: wal: bad magic %q", ErrCorrupt, hdr[:len(walMagic)])
	}
	if v := binary.LittleEndian.Uint16(hdr[len(walMagic):]); v != SnapshotVersion {
		return 0, 0, fmt.Errorf("%w: wal: version %d, this build speaks only %d", ErrCorrupt, v, SnapshotVersion)
	}
	prefix = int64(walHeaderLen)
	rec := make([]byte, recHeaderLen)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return prefix, records, nil // torn (or clean) tail
			}
			return 0, 0, fmt.Errorf("%w: wal read: %v", ErrCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(rec[:4])
		sum := binary.LittleEndian.Uint32(rec[4:])
		if n > walMaxRecord {
			return 0, 0, fmt.Errorf("%w: wal: absurd record length %d", ErrCorrupt, n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return prefix, records, nil // torn tail mid-body
			}
			return 0, 0, fmt.Errorf("%w: wal read: %v", ErrCorrupt, err)
		}
		if got := crc32.Checksum(body, crcTable); got != sum {
			// The full record is present but its bytes are not what was
			// written: that is disk damage, not a crash artifact.
			return 0, 0, fmt.Errorf("%w: wal record at offset %d: checksum mismatch (stored %08x, computed %08x)",
				ErrCorrupt, prefix, sum, got)
		}
		decoded, err := decodeRecordBody(body)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: wal record at offset %d: %v", ErrCorrupt, prefix, err)
		}
		state.Apply(decoded)
		prefix += int64(recHeaderLen) + int64(n)
		records++
	}
}

// walMaxRecord bounds one WAL record; device records are well under a
// kilobyte, so anything near this is damage, not data.
const walMaxRecord = 1 << 20

// Append logs a batch of records with one write: each record keeps its
// own length and CRC, so replay validates them one by one. A write that
// fails is clawed back whole; a crash mid-write leaves a torn tail, and
// replay keeps only the batch's complete records — a prefix of it.
func (s *Store) Append(recs ...WALRecord) error {
	if s.closed {
		return fmt.Errorf("fed: store: closed")
	}
	if len(recs) == 0 {
		return nil
	}
	w := wire.Writer{Buf: s.buf[:0]}
	for _, rec := range recs {
		at := len(w.Buf)
		w.U64(0) // u32 len | u32 crc, filled in once the body is written
		encodeRecordBody(&w, rec)
		body := w.Buf[at+recHeaderLen:]
		binary.LittleEndian.PutUint32(w.Buf[at:], uint32(len(body)))
		binary.LittleEndian.PutUint32(w.Buf[at+4:], crc32.Checksum(body, crcTable))
	}
	s.buf = w.Buf
	if _, err := s.wal.Write(w.Buf); err != nil {
		// Claw back whatever partial bytes the failed write left, so a
		// later successful append never grafts a valid record onto a
		// torn middle — replay would stop at the tear and silently drop
		// it. If the truncate fails too the disk is gone; the node's
		// lame-duck path stops further appends.
		if s.wal.Truncate(s.walLen) == nil {
			s.wal.Seek(s.walLen, io.SeekStart)
		}
		return fmt.Errorf("fed: store: wal append: %w", err)
	}
	s.walLen += int64(len(w.Buf))
	s.records += len(recs)
	return nil
}

// Sync flushes appended records to stable storage.
func (s *Store) Sync() error {
	if s.closed {
		return nil
	}
	return s.wal.Sync()
}

// Records reports how many records the current WAL holds — the
// compaction trigger.
func (s *Store) Records() int { return s.records }

// Generation reports the current snapshot/WAL generation.
func (s *Store) Generation() uint64 { return s.gen }

// Compact writes state as the next snapshot generation and starts its
// empty WAL. The snapshot lands via temp-file + fsync + rename, so a
// crash mid-compaction leaves the previous generation intact and
// loadable. Snapshots older than the previous generation are removed.
func (s *Store) Compact(state *State) error {
	if s.closed {
		return fmt.Errorf("fed: store: closed")
	}
	next := s.gen + 1
	img := EncodeSnapshot(state)
	tmp, err := s.fs.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("fed: store: %w", err)
	}
	if _, err := tmp.Write(img); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("fed: store: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("fed: store: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), snapPath(s.dir, next)); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("fed: store: %w", err)
	}
	// The rename published the snapshot's name, but only in the
	// directory's in-memory state: a crash before the directory itself
	// reaches disk can roll the rename back, orphaning the generation.
	// Fsync the directory before trusting it.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("fed: store: sync dir after snapshot rename: %w", err)
	}
	// The new generation is durable; swap the WAL.
	old := s.wal
	s.gen, s.records, s.wal, s.walLen = next, 0, nil, 0
	if err := s.openWAL(NewState(state.Node)); err != nil {
		return err
	}
	old.Sync()
	old.Close()
	// Retire obsolete generations (keep current and previous).
	if gens, err := snapshotGenerations(s.fs, s.dir); err == nil {
		for _, g := range gens {
			if g+1 < next {
				s.fs.Remove(snapPath(s.dir, g))
				s.fs.Remove(walPath(s.dir, g))
			}
		}
	}
	return nil
}

// Close syncs and closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}

// Abandon closes the WAL file handle without syncing — the kill
// switch for chaos tests: whatever the OS already has is what a real
// crash would have left.
func (s *Store) Abandon() {
	if s.closed {
		return
	}
	s.closed = true
	s.wal.Close()
}

// snapshotGenerations lists the snapshot generations present in dir,
// ascending.
func snapshotGenerations(fsys faultfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fed: store: %w", err)
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "snap-%d.lfed", &g); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}
