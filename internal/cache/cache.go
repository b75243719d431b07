// Package cache implements the client-side read path of BSFS (§3.2 of
// the paper: the client "prefetches a whole block when the requested
// data is not already cached"): a concurrency-safe, byte-budgeted LRU
// page cache plus an asynchronous readahead scheduler.
//
// The cache is keyed by pagestore.Key — (blob, version, page index) —
// the version-addressed page identity of BlobSeer's versioning model.
// Published pages are immutable (every write creates pages under a
// fresh version), so a cached page never needs invalidation: entries
// leave the cache under budget pressure, or when garbage collection
// purges their version. Cached bytes are shared with every caller and
// MUST be treated as read-only.
//
// The cache owns the buffer a fetch returns (or Put is given) and
// charges its capacity. Every entry is reference-counted: Get and Put
// hand out a Page, one reference, and the cache holds one of its own
// while the entry is listed. A buffer goes back to the frame pool
// (transport.ReleaseFrame) exactly once, when its entry has left the
// cache — evicted, purged, or replaced by a longer copy — and the last
// Page of it is released, so a reader's view stays valid however long
// it holds it and a cold fetch reuses the buffer of a page evicted
// before it.
//
// Concurrent requests for the same missing page are de-duplicated
// ("singleflight"): one provider fetch runs, everyone else waits for
// it. This matters under Map/Reduce, where many map tasks on one
// tracker scan the same input BLOB through one shared client.
//
// Readahead is the read-side twin of the write pipeline's WriteDepth:
// a Readahead keeps up to depth pages in flight ahead of a sequential
// reader stream, so page transfer overlaps with the reader's
// consumption instead of serializing behind it.
package cache

import (
	"container/list"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
)

// DefaultBudget is the cache byte budget used when New is given 0.
const DefaultBudget = 64 << 20

// Fetch loads one page from its providers on a miss. The buffer it
// returns is the cache's from then on: nothing else may reference it,
// and it goes back to the frame pool once its page is done with, so it
// should begin at the base of a transport.NewFrame buffer.
type Fetch func(ctx context.Context) ([]byte, error)

// Page is one counted reference to a page's bytes. Data is shared and
// read-only, and valid until Release, which the holder calls exactly
// once. A Page with no buffer to recycle (the zero Page, or one made
// from bytes nobody pools) releases nothing.
type Page struct {
	Data []byte
	e    *entry
}

// Release drops this reference. The buffer goes back to the frame pool
// when its page has left the cache and no other reference remains.
func (p Page) Release() {
	if p.e != nil {
		p.e.unref()
	}
}

// Detached returns the one reference to a page no cache lists: its
// Release hands buf to transport.ReleaseFrame. It is how a reader with
// the cache off owns the frame a fetch copied its page into.
func Detached(buf []byte) Page {
	e := &entry{data: buf}
	e.refs.Store(1)
	return e.page()
}

// Cache is a byte-budgeted LRU page cache with singleflight miss
// handling. It is safe for concurrent use.
type Cache struct {
	budget int64
	stats  *metrics.ReadStats // never nil

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // front = most recently used; values are *entry
	entries map[pagestore.Key]*list.Element
	flights map[pagestore.Key]*flight
}

// entry is one page buffer and its references: the cache's own while
// the entry is listed, plus one per Page handed out. The buffer is
// released when the count reaches zero, which happens once: a listed
// entry's count never drops below one, and a reference is taken only
// from a listed entry or, by tryRef, from one whose count is not zero.
type entry struct {
	key  pagestore.Key
	data []byte
	refs atomic.Int32
}

func (e *entry) page() Page { return Page{Data: e.data, e: e} }

func (e *entry) unref() {
	if e.refs.Add(-1) == 0 {
		transport.ReleaseFrame(e.data)
	}
}

// tryRef takes a reference unless the last one is already gone.
func (e *entry) tryRef() bool {
	for {
		n := e.refs.Load()
		if n == 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// charge is what an entry costs the budget: the capacity it pins, not
// the bytes it shows. A fetched page is a pooled frame of its own, so
// the two differ by the frame class's slack, or by the rest of the
// class for a page shorter than its class.
func charge(data []byte) int64 { return int64(cap(data)) }

// flight is one in-progress fetch that concurrent callers share.
type flight struct {
	done chan struct{} // closed when e/err are set
	e    *entry        // the fetched page, nil on error
	err  error
	// noCache is set (under Cache.mu) when a purge lands while this
	// fetch is in flight: the result is still handed to waiting callers
	// (the bytes are correct — pages are immutable) but must not be
	// re-inserted behind the purge.
	noCache bool
}

// joinHook, when a test sets it, runs in a flight joiner twice: with
// woke false once it found the flight, before it waits, and with woke
// true between its wake-up and its attempt to reference the page.
var joinHook func(woke bool)

// New returns a cache holding at most budget bytes of page content.
// This is where the cache-budget convention of every layer above is
// resolved: 0 means DefaultBudget, and a negative budget means caching
// is off — New returns nil and the caller fetches directly. stats may
// be nil.
func New(budget int64, stats *metrics.ReadStats) *Cache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = DefaultBudget
	}
	if stats == nil {
		stats = &metrics.ReadStats{}
	}
	return &Cache{
		budget:  budget,
		stats:   stats,
		lru:     list.New(),
		entries: make(map[pagestore.Key]*list.Element),
		flights: make(map[pagestore.Key]*flight),
	}
}

// Get returns a reference to the page for key, fetching it at most
// once no matter how many goroutines ask concurrently; the caller
// releases it. A flight joiner shares the leader's page while any
// reference to it remains, and fetches again if it woke to find the
// page already released. A flight leader's fetch error is returned only
// to the leader itself: joiners retry from the top, collapsing into one
// fresh flight (whose result is cached), so one caller's cancelled
// context neither fails its neighbours nor triggers a thundering herd.
func (c *Cache) Get(ctx context.Context, key pagestore.Key, fetch Fetch) (Page, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			e := el.Value.(*entry)
			e.refs.Add(1)
			c.mu.Unlock()
			c.stats.AddHit()
			return e.page(), nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			if joinHook != nil {
				joinHook(false)
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				return Page{}, ctx.Err()
			}
			if joinHook != nil {
				joinHook(true)
			}
			if f.err == nil && f.e.tryRef() {
				c.stats.AddHit()
				return f.e.page(), nil
			}
			// The leader failed (possibly on its own context), or its
			// page is gone; retry. Each pass either hits, joins a newer
			// flight, or elects one new leader, and the select above
			// honours this caller's context, so the loop terminates.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.stats.AddMiss()

		data, err := fetch(ctx)
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			f.e = &entry{key: key, data: data}
			f.e.refs.Store(1) // the leader's
			if !f.noCache {
				c.add(f.e)
			}
		}
		f.err = err
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return Page{}, err
		}
		return f.e.page(), nil
	}
}

// PurgeVersion drops every cached page of one BLOB version and returns
// the number of entries removed. Garbage collection is the first (and
// only) event that invalidates this cache: published pages are
// immutable, but a collected version's pages are gone from the
// providers, so serving them from cache would mask the deletion.
// In-flight fetches of purged pages are marked so their results are
// not re-inserted behind the purge. A purged page's buffer is recycled
// once its last reader releases it.
func (c *Cache) PurgeVersion(blob, ver uint64) int {
	return c.purge(func(k pagestore.Key) bool { return k.Blob == blob && k.Version == ver })
}

// PurgeBlob drops every cached page of whole BLOBs (see PurgeVersion).
func (c *Cache) PurgeBlob(blobs ...uint64) int {
	return c.purge(func(k pagestore.Key) bool { return slices.Contains(blobs, k.Blob) })
}

func (c *Cache) purge(match func(pagestore.Key) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.entries {
		if match(k) {
			c.unlist(el)
			n++
		}
	}
	for k, f := range c.flights {
		if match(k) {
			f.noCache = true
		}
	}
	return n
}

// Put inserts or upgrades the page for key outside the singleflight
// path, taking ownership of data as a fetch's result, and returns a
// reference to the page now serving key. The client uses it to repair
// an entry that was cached under a narrower length validation (a
// truncated replica accepted by a prefix read) once the full page has
// been fetched; an entry is only ever replaced by strictly more bytes
// — a Put of no more bytes than the entry holds releases data and
// returns the entry — and page content is immutable, so an upgrade
// never changes bytes a reader already holds.
func (c *Cache) Put(key pagestore.Key, data []byte) Page {
	e := &entry{key: key, data: data}
	e.refs.Store(1) // the caller's
	c.mu.Lock()
	if !c.add(e) {
		if el, ok := c.entries[key]; ok {
			if kept := el.Value.(*entry); len(kept.data) >= len(data) {
				kept.refs.Add(1)
				c.mu.Unlock()
				e.unref()
				return kept.page()
			}
		}
	}
	c.mu.Unlock()
	return e.page()
}

// add lists e, taking the cache's reference to it, and evicts from the
// LRU tail until the budget holds; a listed entry for the same key with
// fewer bytes is replaced. It lists nothing, and reports false, when
// the key already lists at least as many bytes or e alone is larger
// than the whole budget. Caller holds c.mu.
func (c *Cache) add(e *entry) bool {
	size := charge(e.data)
	if size > c.budget {
		return false
	}
	if el, ok := c.entries[e.key]; ok {
		if len(e.data) <= len(el.Value.(*entry).data) {
			// Raced with another path that already cached it (re-put
			// of an identical immutable page); keep the existing entry.
			c.lru.MoveToFront(el)
			return false
		}
		c.unlist(el)
	}
	e.refs.Add(1)
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += size
	c.evictLocked()
	return true
}

// unlist takes an entry out of the cache and drops the cache's
// reference to it. Caller holds c.mu.
func (c *Cache) unlist(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= charge(e.data)
	e.unref()
}

// evictLocked drops LRU-tail entries until the budget holds. Caller
// holds c.mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.unlist(back)
		c.stats.AddEviction()
	}
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the cached byte total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
//
//lint:unusedexport test hook: the root and cache tests check the resolved budget
func (c *Cache) Budget() int64 { return c.budget }
