package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// DirStore is a file-backed Store: one append-only journal file per node in
// a directory. Records are length- and checksum-framed, so a journal whose
// tail was torn mid-write by a crash — the "failure during a checkpoint"
// case — restores its longest intact prefix instead of failing.
type DirStore struct {
	dir string

	mu    sync.Mutex
	files map[int]*os.File
}

// journalMagic opens every journal file.
var journalMagic = [8]byte{'S', 'L', 'A', 'S', 'H', 'J', 'N', 'L'}

// ErrJournalFormat reports a journal file whose header (not its tail) is
// malformed — a wrong file, not a torn write.
var ErrJournalFormat = errors.New("recovery: malformed journal file")

// maxFrame bounds one record frame, guarding Load against reading a
// corrupted length as an allocation size.
const maxFrame = 1 << 30

// NewDirStore creates (or reopens) a journal directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: journal dir: %w", err)
	}
	return &DirStore{dir: dir, files: make(map[int]*os.File)}, nil
}

// Dir returns the journal directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) path(node int) string {
	return filepath.Join(s.dir, fmt.Sprintf("node%03d.journal", node))
}

// file returns the open append handle for node's journal, creating the file
// (with its magic header) on first use. Callers hold s.mu.
func (s *DirStore) file(node int) (*os.File, error) {
	if f, ok := s.files[node]; ok {
		return f, nil
	}
	f, err := os.OpenFile(s.path(node), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.Write(journalMagic[:]); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.files[node] = f
	return f, nil
}

// Append implements Store. The frame is written with a single Write call:
// [bodyLen u32 | crc32(body) u32 | body], where body is the encoded record.
// A crash can tear the frame (short write) but a torn frame fails its
// length or checksum on Load and truncates the restore there. The body is
// encoded straight into the frame, so each payload byte is copied once.
func (s *DirStore) Append(node int, rec *Record) error {
	n := recordSize(rec)
	frame := appendRecord(make([]byte, 8, 8+n), rec)
	binary.LittleEndian.PutUint32(frame[0:], uint32(n))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))

	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(node)
	if err != nil {
		return fmt.Errorf("recovery: journal node %d: %w", node, err)
	}
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("recovery: journal node %d: %w", node, err)
	}
	return nil
}

// Sync flushes every open journal to stable storage.
func (s *DirStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for node, f := range s.files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("recovery: journal node %d: %w", node, err)
		}
	}
	return nil
}

// Close closes every open journal handle.
func (s *DirStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for node, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, node)
	}
	return first
}

// Load implements Store. It reads frames until the file ends or a frame
// fails its length or checksum; everything after the first bad frame is
// treated as a torn tail and ignored — the intact prefix is the journal.
func (s *DirStore) Load(node int) ([]Record, error) {
	raw, err := os.ReadFile(s.path(node))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: journal node %d: %w", node, err)
	}
	if len(raw) == 0 {
		return nil, nil
	}
	if len(raw) < len(journalMagic) || [8]byte(raw[:8]) != journalMagic {
		return nil, fmt.Errorf("%w: node %d", ErrJournalFormat, node)
	}
	raw = raw[8:]
	var out []Record
	for len(raw) >= 8 {
		n := binary.LittleEndian.Uint32(raw[0:])
		sum := binary.LittleEndian.Uint32(raw[4:])
		if n > maxFrame || int(n) > len(raw)-8 {
			break // torn tail: frame longer than the remaining file
		}
		body := raw[8 : 8+n]
		if crc32.ChecksumIEEE(body) != sum {
			break // torn or corrupt tail
		}
		rec, ok := decodeRecord(body)
		if !ok {
			break
		}
		out = append(out, rec)
		raw = raw[8+n:]
	}
	return out, nil
}

// recordSize returns the encoded size of rec's body.
func recordSize(rec *Record) int {
	return 1 + 8 + 8 + 4 + 8*len(rec.Clock) + 4 + rec.payloadLen()
}

// appendRecord encodes rec's body: kind u8 | seq u64 | gen u64 |
// clockN u32, clock i64... | payN u32, payload.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Clock)))
	for _, v := range rec.Clock {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.payloadLen()))
	return rec.appendPayload(dst)
}

// decodeRecord parses one record body.
func decodeRecord(body []byte) (Record, bool) {
	if len(body) < 1+8+8+4+4 { // kind, seq, gen, clockN, payN
		return Record{}, false
	}
	rec := Record{
		Kind: Kind(body[0]),
		Seq:  binary.LittleEndian.Uint64(body[1:]),
		Gen:  binary.LittleEndian.Uint64(body[9:]),
	}
	clockN := binary.LittleEndian.Uint32(body[17:])
	body = body[21:]
	if uint64(clockN)*8 > uint64(len(body)) {
		return Record{}, false
	}
	if clockN > 0 {
		rec.Clock = make([]int64, clockN)
		for i := range rec.Clock {
			rec.Clock[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
		}
		body = body[clockN*8:]
	}
	if len(body) < 4 {
		return Record{}, false
	}
	payN := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(payN) != uint64(len(body)) {
		return Record{}, false
	}
	if payN > 0 {
		rec.Payload = append([]byte(nil), body...)
	}
	return rec, true
}
