// Package kvlog is a small log-structured, CRC-checked, crash-recovering
// key/value store. It plays the role BerkeleyDB plays in the original
// BlobSeer deployment (§3.1.1 of the paper): the durable layer behind a
// data provider's page store and a metadata provider's node store.
//
// Layout: a single append-only file of records
//
//	[magic 1B][crc32 4B][payloadLen 4B][payload]
//	payload = [op 1B][keyLen uvarint][key][value]
//
// where crc32 covers the payload. Recovery scans the log and truncates
// at the first torn or corrupt record, so a crash mid-append loses at
// most the in-flight record — the property the truncation-injection
// tests exercise. Compact rewrites live records to reclaim space from
// overwritten and deleted keys.
//
// Scans are pinned snapshots: the append-only log's end offset is its
// version, so Snapshot/Scan replay exactly the records below the
// offset pinned at open — one consistent prefix of the store's
// history, however many appends, deletes, or compactions land while
// the scan runs (open-at-version, like the BLOB layer's versioned
// reads).
package kvlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"blobseer/internal/wire"
)

const (
	recMagic  = 0xB5
	opPut     = 1
	opDelete  = 2
	headerLen = 9 // magic + crc32 + payloadLen
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvlog: key not found")

// Options configure a store.
type Options struct {
	// SyncEvery forces an fsync after every SyncEvery puts; zero
	// disables explicit syncing (the OS page cache decides).
	SyncEvery int
}

// Store is a log-structured KV store. Safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	f     *os.File
	path  string
	opts  Options
	index map[string]valueLoc
	// end is the append offset; live/total track garbage for Compact.
	end       int64
	liveBytes int64
	puts      int
	closed    bool
}

// valueLoc locates a live value inside the log file.
type valueLoc struct {
	off  int64 // offset of the value bytes
	size int64
}

// Open opens or creates the store at path and replays the log.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvlog open: %w", err)
	}
	s := &Store{f: f, path: path, opts: opts, index: make(map[string]valueLoc)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover replays the log, rebuilding the index and truncating any
// torn tail left by a crash.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("kvlog recover: %w", err)
	}
	size := info.Size()
	var off int64
	hdr := make([]byte, headerLen)
	for off+headerLen <= size {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			break
		}
		if hdr[0] != recMagic {
			break
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		plen := int64(binary.LittleEndian.Uint32(hdr[5:9]))
		if off+headerLen+plen > size {
			break // torn record
		}
		payload := make([]byte, plen)
		if _, err := s.f.ReadAt(payload, off+headerLen); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record
		}
		if err := s.applyPayload(payload, off+headerLen); err != nil {
			break
		}
		off += headerLen + plen
	}
	if off < size {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("kvlog recover truncate: %w", err)
		}
	}
	s.end = off
	return nil
}

// applyPayload replays one record into the index. payloadOff is the
// file offset of the payload's first byte.
func (s *Store) applyPayload(payload []byte, payloadOff int64) error {
	r := wire.NewReader(payload)
	op := r.Uvarint()
	key := r.String()
	if r.Err() != nil {
		return r.Err()
	}
	switch op {
	case opPut:
		valOff := payloadOff + int64(len(payload)-r.Len())
		if old, ok := s.index[key]; ok {
			s.liveBytes -= old.size
		}
		s.index[key] = valueLoc{off: valOff, size: int64(r.Len())}
		s.liveBytes += int64(r.Len())
	case opDelete:
		if old, ok := s.index[key]; ok {
			s.liveBytes -= old.size
			delete(s.index, key)
		}
	default:
		return fmt.Errorf("kvlog: unknown op %d", op)
	}
	return nil
}

// appendRecord writes one framed record at the end of the log.
func (s *Store) appendRecord(payload []byte) (payloadOff int64, err error) {
	rec := make([]byte, headerLen+len(payload))
	rec[0] = recMagic
	binary.LittleEndian.PutUint32(rec[1:5], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
	copy(rec[headerLen:], payload)
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return 0, fmt.Errorf("kvlog append: %w", err)
	}
	payloadOff = s.end + headerLen
	s.end += int64(len(rec))
	s.puts++
	if s.opts.SyncEvery > 0 && s.puts%s.opts.SyncEvery == 0 {
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("kvlog sync: %w", err)
		}
	}
	return payloadOff, nil
}

// Put stores value under key.
func (s *Store) Put(key string, value []byte) error {
	payload := wire.AppendUvarint(nil, opPut)
	payload = wire.AppendString(payload, key)
	payload = append(payload, value...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvlog: store closed")
	}
	payloadOff, err := s.appendRecord(payload)
	if err != nil {
		return err
	}
	valOff := payloadOff + int64(len(payload)) - int64(len(value))
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
	}
	s.index[key] = valueLoc{off: valOff, size: int64(len(value))}
	s.liveBytes += int64(len(value))
	return nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	loc, ok := s.index[key]
	f := s.f
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, errors.New("kvlog: store closed")
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	buf := make([]byte, loc.size)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("kvlog get %q: %w", key, err)
	}
	return buf, nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Delete removes key. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvlog: store closed")
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	payload := wire.AppendUvarint(nil, opDelete)
	payload = wire.AppendString(payload, key)
	if _, err := s.appendRecord(payload); err != nil {
		return err
	}
	s.liveBytes -= s.index[key].size
	delete(s.index, key)
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns a snapshot of all live keys, in unspecified order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

//
// Pinned-snapshot scans. The log is append-only and records are
// immutable, so the store's "version" IS its end offset: pinning the
// offset at open time and replaying only records below it yields one
// consistent prefix of the store's history, no matter how many appends
// land while the scan runs — the same open-at-version discipline the
// BLOB layer applies to versioned reads. The old Keys-then-Get walk
// chased a moving tail instead: values overwritten between the key
// listing and each Get leaked mid-scan states that never coexisted.
//

// Snapshot is a pinned read-only view of the log at one end offset.
// It holds its own file descriptor on the log path, so a concurrent
// Compact (which atomically renames a rewritten log over the path)
// never disturbs it: the descriptor keeps reading the original inode.
// Close it when done.
type Snapshot struct {
	f   *os.File
	end int64
}

// Snapshot pins the store's current state — its end offset — and opens
// an independent view of it. Appends, deletes, and compactions after
// this point are invisible to the snapshot.
func (s *Store) Snapshot() (*Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("kvlog: store closed")
	}
	// Open before reading s.end is not needed: we hold the read lock,
	// so no append or compact can move the log under us in between.
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("kvlog snapshot: %w", err)
	}
	return &Snapshot{f: f, end: s.end}, nil
}

// Scan replays the snapshot's prefix and calls fn once per key live at
// the pinned offset, with the value bytes as of that offset (last
// record below the pin wins, deletes suppress). fn's value slice is
// owned by the caller. Iteration order is unspecified. A non-nil error
// from fn aborts the scan and is returned.
func (sn *Snapshot) Scan(fn func(key string, value []byte) error) error {
	type loc struct {
		off  int64
		size int64
	}
	index := make(map[string]loc)
	// One buffered sequential pass over the pinned prefix, the payload
	// buffer reused from record to record: a pread pair and an
	// allocation per record let an unthrottled appender outgrow a scan.
	br := bufio.NewReaderSize(io.NewSectionReader(sn.f, 0, sn.end), 256<<10)
	var off int64
	var hdr [headerLen]byte
	var payload []byte
	for off+headerLen <= sn.end {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("kvlog scan: %w", err)
		}
		if hdr[0] != recMagic {
			return fmt.Errorf("kvlog scan: bad magic at %d", off)
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		plen := int64(binary.LittleEndian.Uint32(hdr[5:9]))
		if off+headerLen+plen > sn.end {
			break // record straddles the pin; it published after us
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("kvlog scan: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return fmt.Errorf("kvlog scan: corrupt record at %d", off)
		}
		r := wire.NewReader(payload)
		op := r.Uvarint()
		key := r.String()
		if r.Err() != nil {
			return fmt.Errorf("kvlog scan: %w", r.Err())
		}
		switch op {
		case opPut:
			valOff := off + headerLen + int64(len(payload)-r.Len())
			index[key] = loc{off: valOff, size: int64(r.Len())}
		case opDelete:
			delete(index, key)
		default:
			return fmt.Errorf("kvlog scan: unknown op %d", op)
		}
		off += headerLen + plen
	}
	for key, l := range index {
		value := make([]byte, l.size)
		if _, err := sn.f.ReadAt(value, l.off); err != nil {
			return fmt.Errorf("kvlog scan %q: %w", key, err)
		}
		if err := fn(key, value); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of keys live at the pinned offset.
func (sn *Snapshot) Len() (int, error) {
	n := 0
	err := sn.Scan(func(string, []byte) error { n++; return nil })
	return n, err
}

// Close releases the snapshot's file descriptor.
func (sn *Snapshot) Close() error { return sn.f.Close() }

// Scan runs fn over one pinned snapshot of the store (see Snapshot):
// the consistent-prefix replacement for iterating Keys and calling Get
// per key while writers append.
func (s *Store) Scan(fn func(key string, value []byte) error) error {
	sn, err := s.Snapshot()
	if err != nil {
		return err
	}
	defer sn.Close()
	return sn.Scan(fn)
}

// Size returns (logBytes, liveValueBytes); the gap is reclaimable.
func (s *Store) Size() (total, live int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.end, s.liveBytes
}

// Open reports whether the store is still accepting operations
// (Close has not been called). Health checks use it to verify a
// durable journal has not been torn down under a live service.
func (s *Store) Open() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.closed
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.f.Sync()
}

// CompactIfDead compacts the log once its dead bytes (Size's total
// minus live) have reached threshold, and reports whether it did: the
// check every journal on a Store makes after the writes that leave dead
// bytes behind.
func (s *Store) CompactIfDead(threshold int64) (bool, error) {
	if total, live := s.Size(); total-live < threshold {
		return false, nil
	}
	if err := s.Compact(); err != nil {
		return false, err
	}
	return true, nil
}

// Compact rewrites the log keeping only live records, then atomically
// replaces the old file. Concurrent reads and writes are excluded for
// the duration (provider compaction runs off the hot path).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvlog: store closed")
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvlog compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after successful rename

	newIndex := make(map[string]valueLoc, len(s.index))
	var newEnd, newLive int64
	for key, loc := range s.index {
		value := make([]byte, loc.size)
		if _, err := s.f.ReadAt(value, loc.off); err != nil {
			tmp.Close()
			return fmt.Errorf("kvlog compact read %q: %w", key, err)
		}
		payload := wire.AppendUvarint(nil, opPut)
		payload = wire.AppendString(payload, key)
		payload = append(payload, value...)
		rec := make([]byte, headerLen+len(payload))
		rec[0] = recMagic
		binary.LittleEndian.PutUint32(rec[1:5], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
		copy(rec[headerLen:], payload)
		if _, err := tmp.WriteAt(rec, newEnd); err != nil {
			tmp.Close()
			return fmt.Errorf("kvlog compact write: %w", err)
		}
		valOff := newEnd + int64(len(rec)) - int64(len(value))
		newIndex[key] = valueLoc{off: valOff, size: int64(len(value))}
		newEnd += int64(len(rec))
		newLive += int64(len(value))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kvlog compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return fmt.Errorf("kvlog compact rename: %w", err)
	}
	s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.end = newEnd
	s.liveBytes = newLive
	return nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
