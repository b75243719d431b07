// Package pagestore implements the storage engine behind a BlobSeer
// data provider: an immutable page store keyed by (blob, version, page
// index). Pages are written once (BlobSeer never overwrites data —
// every write/append creates pages for a fresh version) and read many
// times.
//
// Providers hold pages in memory. Two engines share one interface:
//
//   - Memory: a plain map;
//   - Synthesize: stores only page *sizes* and regenerates deterministic
//     bytes on read. Experiments with hundreds of simulated clients use
//     it to keep the 270-node cluster's memory footprint flat while the
//     shaped network still moves real byte counts.
package pagestore

import (
	"errors"
	"fmt"
	"sync"
)

// Key identifies one immutable page. Version is the BLOB version whose
// write created the page, so keys are globally unique.
type Key struct {
	Blob    uint64
	Version uint64
	Index   uint64
}

// String renders the key for logs and errors.
func (k Key) String() string {
	return fmt.Sprintf("p/%d/%d/%d", k.Blob, k.Version, k.Index)
}

// hash64 mixes the key into a 64-bit seed for synthesized content.
func (k Key) hash64() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range [3]uint64{k.Blob, k.Version, k.Index} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// ErrNotFound is returned for missing pages.
var ErrNotFound = errors.New("pagestore: page not found")

// Store is the engine interface. Implementations are safe for
// concurrent use.
type Store interface {
	// Put stores an immutable page. Re-putting the same key is allowed
	// (idempotent replication retries) and replaces the content. Put
	// keeps no reference to data: the caller's buffer (an rpc request
	// frame) is reused as soon as Put returns.
	Put(k Key, data []byte) error
	// Get returns the page content. Stored pages are immutable, so the
	// slice may be the stored copy itself, shared with every other
	// reader: callers must treat it as read-only.
	Get(k Key) ([]byte, error)
	// Has reports whether the page exists.
	Has(k Key) bool
	// Delete removes a page (garbage collection of failed writes).
	Delete(k Key) error
	// Len returns the number of stored pages.
	Len() int
	// BytesUsed returns the total payload bytes held.
	BytesUsed() int64
	// Close releases resources.
	Close() error
}

//
// Memory engine.
//

// Memory is a map-backed Store.
type Memory struct {
	mu    sync.RWMutex
	pages map[Key][]byte
	bytes int64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{pages: make(map[Key][]byte)}
}

// Put implements Store. The data slice is copied — the one page-sized
// allocation of the write path.
func (m *Memory) Put(k Key, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.pages[k]; ok {
		m.bytes -= int64(len(old))
	}
	m.pages[k] = cp
	m.bytes += int64(len(cp))
	return nil
}

// Get implements Store. It returns the stored slice itself: a re-put
// replaces the map entry, never the bytes, so the slice stays valid
// and unchanged for as long as a reader holds it.
func (m *Memory) Get(k Key) ([]byte, error) {
	m.mu.RLock()
	p, ok := m.pages[k]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return p, nil
}

// Has implements Store.
func (m *Memory) Has(k Key) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.pages[k]
	return ok
}

// Delete implements Store.
func (m *Memory) Delete(k Key) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.pages[k]; ok {
		m.bytes -= int64(len(old))
		delete(m.pages, k)
	}
	return nil
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// BytesUsed implements Store.
func (m *Memory) BytesUsed() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Close implements Store.
func (m *Memory) Close() error { return nil }

//
// Synthesize engine.
//

// Synthesize retains sizes only; Get regenerates deterministic content
// from the page key, so a read always returns the same bytes for the
// same key but nothing is actually held in memory.
type Synthesize struct {
	mu    sync.RWMutex
	sizes map[Key]int
	bytes int64
}

// NewSynthesize returns an empty synthesizing store.
func NewSynthesize() *Synthesize {
	return &Synthesize{sizes: make(map[Key]int)}
}

// Put implements Store; only len(data) is retained.
func (s *Synthesize) Put(k Key, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.sizes[k]; ok {
		s.bytes -= int64(old)
	}
	s.sizes[k] = len(data)
	s.bytes += int64(len(data))
	return nil
}

// Get implements Store, synthesizing the content.
func (s *Synthesize) Get(k Key) ([]byte, error) {
	s.mu.RLock()
	n, ok := s.sizes[k]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	buf := make([]byte, n)
	Fill(buf, k.hash64())
	return buf, nil
}

// Has implements Store.
func (s *Synthesize) Has(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sizes[k]
	return ok
}

// Delete implements Store.
func (s *Synthesize) Delete(k Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.sizes[k]; ok {
		s.bytes -= int64(old)
		delete(s.sizes, k)
	}
	return nil
}

// Len implements Store.
func (s *Synthesize) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sizes)
}

// BytesUsed implements Store (logical bytes, not resident bytes).
func (s *Synthesize) BytesUsed() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Close implements Store.
func (s *Synthesize) Close() error { return nil }

// Fill writes a deterministic xorshift64* byte pattern seeded by seed.
// Exported so tests and workload generators can produce page content
// that matches what a Synthesize store returns.
func Fill(buf []byte, seed uint64) {
	x := seed | 1
	for i := 0; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x * 0x2545F4914F6CDD1D
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
}

var (
	_ Store = (*Memory)(nil)
	_ Store = (*Synthesize)(nil)
)
