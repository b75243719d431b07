// Package cache implements the client-side read path of BSFS (§3.2 of
// the paper: the client "prefetches a whole block when the requested
// data is not already cached"): a concurrency-safe, byte-budgeted LRU
// page cache plus an asynchronous readahead scheduler.
//
// The cache is keyed by pagestore.Key — (blob, version, page index) —
// the version-addressed page identity of BlobSeer's versioning model.
// Published pages are immutable (every write creates pages under a
// fresh version), so a cached page never needs invalidation: entries
// leave the cache only under budget pressure. Cached slices are shared
// with every caller and MUST be treated as read-only; the cache takes
// the slice a fetch returns as it is (no copy) and charges its capacity.
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

	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
)

// DefaultBudget is the cache byte budget used when New is given 0.
const DefaultBudget = 64 << 20

// Fetch loads one page from its providers on a miss.
type Fetch func(ctx context.Context) ([]byte, error)

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

type entry struct {
	key  pagestore.Key
	data []byte
}

// charge is what an entry costs the budget: the capacity it pins, not
// the bytes it shows. Entries are not copied in, so a short prefix of
// a large buffer keeps the buffer alive. (A fetched page is a slice of
// its rpc response frame clipped to its length, wire.Reader.Bytes does
// that, so there the two agree to within the frame's header.)
func charge(data []byte) int64 { return int64(cap(data)) }

// flight is one in-progress fetch that concurrent callers share.
type flight struct {
	done chan struct{} // closed when data/err are set
	data []byte
	err  error
	// noCache is set (under Cache.mu) when a purge lands while this
	// fetch is in flight: the result is still handed to waiting callers
	// (the bytes are correct — pages are immutable) but must not be
	// re-inserted behind the purge.
	noCache bool
}

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

// Get returns the page for key, fetching it at most once no matter how
// many goroutines ask concurrently. The returned slice is shared and
// read-only. A flight leader's fetch error is returned only to the
// leader itself: joiners retry from the top, collapsing into one fresh
// flight (whose result is cached), so one caller's cancelled context
// neither fails its neighbours nor triggers a thundering herd.
func (c *Cache) Get(ctx context.Context, key pagestore.Key, fetch Fetch) ([]byte, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			data := el.Value.(*entry).data
			c.mu.Unlock()
			c.stats.AddHit()
			return data, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				c.stats.AddHit()
				return f.data, nil
			}
			// The leader failed (possibly on its own context); retry.
			// Each pass either hits, joins a newer flight, or elects
			// one new leader, and the select above honours this
			// caller's context, so the loop terminates.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.stats.AddMiss()

		f.data, f.err = fetch(ctx)
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil && !f.noCache {
			c.add(key, f.data)
		}
		c.mu.Unlock()
		close(f.done)
		return f.data, f.err
	}
}

// PurgeVersion drops every cached page of one BLOB version and returns
// the number of entries removed. Garbage collection is the first (and
// only) event that invalidates this cache: published pages are
// immutable, but a collected version's pages are gone from the
// providers, so serving them from cache would mask the deletion.
// In-flight fetches of purged pages are marked so their results are
// not re-inserted behind the purge.
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
		if !match(k) {
			continue
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.entries, k)
		c.bytes -= charge(e.data)
		n++
	}
	for k, f := range c.flights {
		if match(k) {
			f.noCache = true
		}
	}
	return n
}

// Put inserts or upgrades the page for key outside the singleflight
// path. The client uses it to repair an entry that was cached under a
// narrower length validation (a truncated replica accepted by a prefix
// read) once the full page has been fetched; an entry is only ever
// replaced by strictly more bytes, and page content is immutable, so
// an upgrade never changes bytes a reader already holds.
func (c *Cache) Put(key pagestore.Key, data []byte) {
	c.mu.Lock()
	c.add(key, data)
	c.mu.Unlock()
}

// add inserts (or upgrades to a longer copy) the page and evicts from
// the LRU tail until the budget holds. Pages larger than the whole
// budget are not cached at all. Caller holds c.mu.
func (c *Cache) add(key pagestore.Key, data []byte) {
	size := charge(data)
	if size > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		if len(data) <= len(e.data) {
			// Raced with another path that already cached it (re-put
			// of an identical immutable page); keep the existing entry.
			c.lru.MoveToFront(el)
			return
		}
		c.bytes += size - charge(e.data)
		e.data = data
		c.lru.MoveToFront(el)
		c.evictLocked()
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, data: data})
	c.bytes += size
	c.evictLocked()
}

// evictLocked drops LRU-tail entries until the budget holds. Caller
// holds c.mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= charge(ev.data)
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
