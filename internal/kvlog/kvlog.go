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
//
// # Journal
//
// A Journal is a sequenced log under one key prefix of a Store: record
// n is stored at prefix+%016x. Its contract is kopia's storage
// atomicity clause ("it mustn't be possible to observe partial
// results") applied to a record. A reopened journal replays exactly the
// records wholly written before a crash, in ascending seq; recovery
// truncates a torn tail, so it is never replayed. There is never a gap:
// Append uses a seq only once its record is stored and trims delete
// oldest first, so any crash leaves one contiguous run, and the next
// Append gets the last replayed seq + 1. A crash inside Compact leaves
// the old log: the rewrite replaces it only once synced.
package kvlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
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
// torn or corrupt tail left by a crash.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("kvlog recover: %w", err)
	}
	size := info.Size()
	off, _ := readRecords(s.f, size, s.applyPayload) // whatever stopped it short ends the log
	if off < size {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("kvlog recover truncate: %w", err)
		}
	}
	s.end = off
	return nil
}

// errTorn reports a record that runs past the end being read: a torn
// tail to recovery, a record published after the pin to a scan.
var errTorn = errors.New("torn record")

// readRecords reads the records in the first end bytes of f and calls
// fn with each record's payload and the file offset of its first byte.
// It reads in one buffered sequential pass with one payload buffer
// reused from record to record: a pread pair and an allocation per
// record let an unthrottled appender outgrow a scan, and tripled the
// cost of a replay. It returns the offset just past the last
// record fn took and, if it stopped short of end, why: errTorn, a bad
// magic byte or CRC, a read error, or fn's error.
func readRecords(f *os.File, end int64, fn func(payload []byte, payloadOff int64) error) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, end), 256<<10)
	var off int64
	var hdr [headerLen]byte
	var payload []byte
	for off < end {
		if off+headerLen > end {
			return off, errTorn
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, err
		}
		if hdr[0] != recMagic {
			return off, fmt.Errorf("bad magic at %d", off)
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		plen := int64(binary.LittleEndian.Uint32(hdr[5:9]))
		if off+headerLen+plen > end {
			return off, errTorn
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, fmt.Errorf("corrupt record at %d", off)
		}
		if err := fn(payload, off+headerLen); err != nil {
			return off, err
		}
		off += headerLen + plen
	}
	return off, nil
}

// applyPayload replays one record into the index. payloadOff is the
// file offset of the payload's first byte.
func (s *Store) applyPayload(payload []byte, payloadOff int64) error {
	r := wire.NewReader(payload)
	op := r.Uvarint()
	key := r.Bytes()
	if r.Err() != nil {
		return r.Err()
	}
	switch op {
	case opPut:
		valOff := payloadOff + int64(len(payload)-r.Len())
		if old, ok := s.index[string(key)]; ok {
			s.liveBytes -= old.size
		}
		s.index[string(key)] = valueLoc{off: valOff, size: int64(r.Len())}
		s.liveBytes += int64(r.Len())
	case opDelete:
		if old, ok := s.index[string(key)]; ok {
			s.liveBytes -= old.size
			delete(s.index, string(key))
		}
	default:
		return fmt.Errorf("kvlog: unknown op %d", op)
	}
	return nil
}

// record frames a record of op on key with an n-byte value in one
// buffer: the header, then the payload — op, key, value — that the
// header's CRC covers. It returns the record and its value slot, which
// the caller fills before sealRecord writes the header. Put, Delete and
// Compact all write records framed here, so a value is copied once,
// into the record.
func record(op uint64, key string, n int) (rec, value []byte) {
	plen := wire.UvarintLen(op) + wire.UvarintLen(uint64(len(key))) + len(key) + n
	rec = make([]byte, headerLen, headerLen+plen)
	rec = wire.AppendUvarint(rec, op)
	rec = wire.AppendString(rec, key)
	rec = rec[:headerLen+plen]
	return rec, rec[headerLen+plen-n:]
}

// sealRecord writes rec's header over its filled payload.
func sealRecord(rec []byte) []byte {
	rec[0] = recMagic
	binary.LittleEndian.PutUint32(rec[1:5], crc32.ChecksumIEEE(rec[headerLen:]))
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(rec)-headerLen))
	return rec
}

// appendRecord writes one framed record at the end of the log and
// returns the file offset of its first byte.
func (s *Store) appendRecord(rec []byte) (off int64, err error) {
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return 0, fmt.Errorf("kvlog append: %w", err)
	}
	off = s.end
	s.end += int64(len(rec))
	s.puts++
	if s.opts.SyncEvery > 0 && s.puts%s.opts.SyncEvery == 0 {
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("kvlog sync: %w", err)
		}
	}
	return off, nil
}

// Put stores value under key.
func (s *Store) Put(key string, value []byte) error {
	rec, slot := record(opPut, key, len(value))
	copy(slot, value)
	sealRecord(rec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvlog: store closed")
	}
	off, err := s.appendRecord(rec)
	if err != nil {
		return err
	}
	valOff := off + int64(len(rec)) - int64(len(value))
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
	}
	s.index[key] = valueLoc{off: valOff, size: int64(len(value))}
	s.liveBytes += int64(len(value))
	return nil
}

// Get returns the value stored under key.
//
//lint:unusedexport the store's point read; every journal replays by Scan, and kvlog's tests check writes, replay and compaction through it
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
	rec, _ := record(opDelete, key, 0)
	if _, err := s.appendRecord(sealRecord(rec)); err != nil {
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
	_, err := readRecords(sn.f, sn.end, func(payload []byte, payloadOff int64) error {
		r := wire.NewReader(payload)
		op := r.Uvarint()
		key := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		switch op {
		case opPut:
			index[key] = loc{off: payloadOff + int64(len(payload)-r.Len()), size: int64(r.Len())}
		case opDelete:
			delete(index, key)
		default:
			return fmt.Errorf("unknown op %d", op)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errTorn) { // a torn record straddles the pin: it published after us
		return fmt.Errorf("kvlog scan: %w", err)
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

// Close releases the snapshot's file descriptor.
func (sn *Snapshot) Close() error { return sn.f.Close() }

// Scan runs fn over one pinned snapshot of the store (see Snapshot):
// every live key once, as of one consistent prefix, while writers
// append.
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
//
//lint:unusedexport durability flush for a caller that must not lose an acked write
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
		rec, value := record(opPut, key, int(loc.size))
		if _, err := s.f.ReadAt(value, loc.off); err != nil {
			tmp.Close()
			return fmt.Errorf("kvlog compact read %q: %w", key, err)
		}
		if _, err := tmp.WriteAt(sealRecord(rec), newEnd); err != nil {
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

// Journal is a sequenced log under one key prefix of a Store (see the
// package doc for its crash contract). Its retained records are always
// the contiguous run [first, last]. Safe for concurrent use.
type Journal struct {
	s      *Store
	prefix string

	mu    sync.Mutex
	first uint64 // oldest retained seq; last+1 when empty
	last  uint64 // newest seq used
}

// Journal returns the journal kept under prefix, with its retained run
// read from the store's index.
func (s *Store) Journal(prefix string) *Journal {
	j := &Journal{s: s, prefix: prefix, first: 1}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key := range s.index {
		if seq, ok := j.seq(key); ok {
			if j.last == 0 || seq < j.first {
				j.first = seq
			}
			j.last = max(j.last, seq)
		}
	}
	return j
}

// key names record seq: the prefix and 16 zero-padded hex digits,
// rendered on the stack so the key is the one allocation.
func (j *Journal) key(seq uint64) string {
	var buf [48]byte
	b := append(append(buf[:0], j.prefix...), "0000000000000000"...)
	for i := len(b) - 1; seq > 0; i-- {
		b[i] = "0123456789abcdef"[seq&15]
		seq >>= 4
	}
	return string(b)
}

// seq parses a key of this journal; ok is false for any other key.
func (j *Journal) seq(key string) (uint64, bool) {
	if len(key) != len(j.prefix)+16 || key[:len(j.prefix)] != j.prefix {
		return 0, false
	}
	seq, err := strconv.ParseUint(key[len(j.prefix):], 16, 64)
	return seq, err == nil && seq > 0
}

// Append stores one record as the next seq and returns it. encode is
// handed that seq and returns the record; the seq counts as used only
// once the record is stored, so a failed encode or put leaves no gap.
// encode runs under the journal's lock and must not call back into it.
func (j *Journal) Append(encode func(seq uint64) ([]byte, error)) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.last + 1
	rec, err := encode(seq)
	if err != nil {
		return 0, err
	}
	//lint:lockhold seq order must equal log order, so the put commits under j.mu; every contender is an append needing the same ordering
	if err := j.s.Put(j.key(seq), rec); err != nil {
		return 0, err
	}
	j.last = seq
	return seq, nil
}

// Replay calls fn once per record retained at one pinned Scan, in
// ascending seq. A non-nil error from fn stops it and is returned.
func (j *Journal) Replay(fn func(seq uint64, rec []byte) error) error {
	type entry struct {
		seq uint64
		rec []byte
	}
	var recs []entry
	if err := j.s.Scan(func(key string, value []byte) error {
		if seq, ok := j.seq(key); ok {
			recs = append(recs, entry{seq, value})
		}
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
	for _, e := range recs {
		if err := fn(e.seq, e.rec); err != nil {
			return err
		}
	}
	return nil
}

// TrimThrough deletes the retained records with seq ≤ seq, oldest
// first, so a crash part-way still leaves a contiguous run.
func (j *Journal) TrimThrough(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ; j.first <= min(seq, j.last); j.first++ {
		//lint:lockhold the run's first seq moves with each delete under j.mu, so no Append or Len sees a record the log no longer holds
		if err := j.s.Delete(j.key(j.first)); err != nil {
			return err
		}
	}
	return nil
}

// SkipThrough makes seq the last seq used if the journal is empty and
// its last is lower, so the next Append gets seq+1. An empty journal's
// keys keep no number: an owner that trimmed every record into a
// checkpoint restores the seq the checkpoint covers with it.
func (j *Journal) SkipThrough(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.first > j.last && seq > j.last {
		j.first, j.last = seq+1, seq
	}
}

// Len returns the number of retained records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.last + 1 - j.first)
}

// Last returns the newest seq used: every record ever appended,
// trimmed or not.
func (j *Journal) Last() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last
}
