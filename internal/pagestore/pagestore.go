// Package pagestore implements the storage engine behind a BlobSeer
// data provider: an immutable page store keyed by (blob, version, page
// index). Pages are written once (BlobSeer never overwrites data —
// every write/append creates pages for a fresh version) and read many
// times.
//
// Providers hold pages in memory. Two engines share one interface:
//
//   - Memory: a map of pages whose buffers are reused. Keys are never
//     reused, but memory is: a deleted or replaced page's buffer holds
//     the next page of its size class (transport.ClassSize: at most
//     12.5 % over the length), or of a class up to an octave below
//     whose own class has no free buffer, unless a reader still has it
//     pinned. So a provider under the paper's append-only churn, whose
//     collector deletes every dead page, stores new pages — whole pages
//     and the fragments of unaligned appends, whatever their lengths —
//     in the memory of reclaimed ones;
//   - Synthesize: stores only page *sizes* and serves deterministic
//     bytes on read, windows of one shared pattern. Experiments with
//     hundreds of simulated clients use it to keep the 270-node
//     cluster's memory footprint flat while the shaped network still
//     moves real byte counts.
package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blobseer/internal/transport"
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
	// Pin returns the page held for one reader, who must treat it as
	// read-only: its bytes stay valid and unchanged, whatever is deleted
	// or put meanwhile, until the reader calls Release.
	Pin(k Key) (*Page, error)
	// Delete removes a page and reports the bytes it dropped; ok is
	// false when the store did not hold the page. The collector deletes
	// every page no retained version reads.
	Delete(k Key) (size int, ok bool)
	// Len returns the number of stored pages.
	Len() int
	// BytesUsed returns the total payload bytes held.
	BytesUsed() int64
	// Close releases resources.
	Close() error
}

// Page is one stored page. A Memory store's Page is also the unit its
// buffers are recycled in: while no reader pins it, a deleted Page
// waits on the store's free list for the next Put of its size class
// or of one up to an octave below.
type Page struct {
	data []byte
	pins atomic.Int32
}

// Bytes returns the page content, valid until Release.
func (p *Page) Bytes() []byte { return p.data }

// Release ends the pin Store.Pin took; the caller must not touch the
// page's bytes afterwards.
func (p *Page) Release() { p.pins.Add(-1) }

//
// Memory engine.
//

// Memory is a map-backed Store that reuses the memory of the pages it
// drops, through a transport.Recycler: a page's buffer has the capacity
// of its length's size class, or up to twice it when the page reuses a
// longer page's buffer, and the store never holds more of it,
// stored, being stored or free, than it held stored at its busiest.
type Memory struct {
	mu    sync.RWMutex
	pages map[Key]*Page
	bytes int64 // stored payload: what BytesUsed reports
	free  transport.Recycler[*Page]
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{pages: make(map[Key]*Page)}
}

// Put implements Store. The data is copied into a freed buffer of its
// size class if the free list has one, else into the smallest freed
// one up to twice that class (at most 2 × ClassSize(len(data)) bytes),
// else into a fresh one of its class — the one page-sized allocation
// of the write path, which a provider whose collector frees as fast as
// it stores no longer pays.
func (m *Memory) Put(k Key, data []byte) error {
	n := len(data)
	p, ok := m.free.Take(n)
	if !ok {
		if p == nil {
			p = new(Page)
		}
		p.data = make([]byte, 0, transport.ClassSize(n))
	}
	p.data = append(p.data[:0], data...)

	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.pages[k]; ok {
		m.bytes -= int64(len(old.data))
		m.drop(old)
	}
	m.pages[k] = p
	m.bytes += int64(n)
	return nil
}

// drop takes a page that has left the map, under mu. Unless a reader
// still pins it, its buffer goes on the free list; a pinned page is
// left to the garbage collector. A pin is taken under the read lock
// while the page is in the map, so once it is out of the map under the
// write lock the count can only fall.
func (m *Memory) drop(p *Page) {
	if p.pins.Load() != 0 {
		m.free.Forget(p.data)
		return
	}
	m.free.Give(p, p.data)
}

// Recycled returns the accounting of the store's free list.
//
//lint:unusedexport test hook: mapreduce's tests count the buffers providers reuse
func (m *Memory) Recycled() transport.RecycleStats { return m.free.Stats() }

// Get returns the stored bytes without a pin: their memory holds
// another page once this one is deleted or re-put. Providers read
// through Pin; benchmark/'s pagestore.get64k probe times this lookup.
func (m *Memory) Get(k Key) ([]byte, error) {
	m.mu.RLock()
	p, ok := m.pages[k]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return p.data, nil
}

// Pin implements Store: the stored page itself, which is not reused
// until it is released.
func (m *Memory) Pin(k Key) (*Page, error) {
	m.mu.RLock()
	p, ok := m.pages[k]
	if ok {
		p.pins.Add(1)
	}
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return p, nil
}

// Delete implements Store.
func (m *Memory) Delete(k Key) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pages[k]
	if !ok {
		return 0, false
	}
	delete(m.pages, k)
	n := len(p.data) // drop may hand p to a concurrent Put
	m.bytes -= int64(n)
	m.drop(p)
	return n, true
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

// Close implements Store: it gives the free list back to the garbage
// collector.
func (m *Memory) Close() error {
	m.free.Clear()
	return nil
}

//
// Synthesize engine.
//

// Synthesize retains sizes only; Pin serves an n-byte page as a
// read-only window of one shared Fill pattern, at an offset below n
// drawn from the key, so a read always returns the same bytes for the
// same key, distinct keys read differently, and nothing but the
// pattern is held in memory. The pattern is at least twice the longest
// page read and only grows, keeping its prefix, so a key's bytes never
// change.
type Synthesize struct {
	mu      sync.RWMutex
	sizes   map[Key]int
	bytes   int64
	pattern []byte
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

// Pin implements Store with a Page of its own over the shared pattern;
// the reader must not write to it.
func (s *Synthesize) Pin(k Key) (*Page, error) {
	s.mu.RLock()
	n, ok := s.sizes[k]
	pat := s.pattern
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if n == 0 {
		return &Page{}, nil
	}
	if len(pat) < 2*n {
		pat = s.grow(2 * n)
	}
	off := int(k.hash64() % uint64(n))
	return &Page{data: pat[off : off+n : off+n]}, nil
}

// grow makes the pattern at least n bytes long and returns it. Fill is
// a stream from its seed, so a longer pattern keeps the old one as its
// prefix; windows over the old one stay valid, since it is never
// written again.
func (s *Synthesize) grow(n int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pattern) < n {
		s.pattern = make([]byte, max(n, 2*len(s.pattern)))
		Fill(s.pattern, 1)
	}
	return s.pattern
}

// Delete implements Store.
func (s *Synthesize) Delete(k Key) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.sizes[k]
	if ok {
		s.bytes -= int64(n)
		delete(s.sizes, k)
	}
	return n, ok
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

// Fill writes a deterministic xorshift64* byte pattern seeded by seed:
// the pattern a Synthesize store serves windows of, and the page
// content tests and workload generators write.
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
