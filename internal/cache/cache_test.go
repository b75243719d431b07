package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
)

var ctx = context.Background()

func key(i uint64) pagestore.Key { return pagestore.Key{Blob: 1, Version: 1, Index: i} }

// cached returns the page c holds for k without fetching it, counting
// a hit or a miss, or moving it in the LRU order.
func cached(c *Cache, k pagestore.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		return el.Value.(*entry).data, true
	}
	return nil, false
}

func page(i uint64, n int) []byte {
	out := make([]byte, n)
	for j := range out {
		out[j] = byte(i*31 + uint64(j)*7)
	}
	return out
}

// TestNewResolvesBudget pins the cache-budget convention every layer
// above relies on: 0 is the default budget, negative is no cache.
func TestNewResolvesBudget(t *testing.T) {
	if got := New(0, nil).Budget(); got != DefaultBudget {
		t.Errorf("New(0) budget = %d, want DefaultBudget", got)
	}
	if got := New(1<<10, nil).Budget(); got != 1<<10 {
		t.Errorf("New(1 KiB) budget = %d", got)
	}
	if c := New(-1, nil); c != nil {
		t.Errorf("New(-1) = %v, want nil (caching off)", c)
	}
}

func TestGetCachesAndCounts(t *testing.T) {
	stats := &metrics.ReadStats{}
	c := New(1<<20, stats)
	var fetches atomic.Int64
	fetch := func(context.Context) ([]byte, error) {
		fetches.Add(1)
		return page(3, 100), nil
	}
	for i := 0; i < 5; i++ {
		got, err := c.Get(ctx, key(3), fetch)
		if err != nil || len(got) != 100 {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("fetches = %d, want 1", n)
	}
	snap := stats.Snapshot()
	if snap.Misses != 1 || snap.Hits != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/1", snap.Hits, snap.Misses)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	stats := &metrics.ReadStats{}
	c := New(300, stats) // holds 3 x 100-byte pages
	fetchFor := func(i uint64) Fetch {
		return func(context.Context) ([]byte, error) { return page(i, 100), nil }
	}
	for i := uint64(0); i < 4; i++ {
		if _, err := c.Get(ctx, key(i), fetchFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 is the LRU victim of inserting page 3.
	if _, ok := cached(c, key(0)); ok {
		t.Error("page 0 still cached, want evicted")
	}
	for i := uint64(1); i < 4; i++ {
		if _, ok := cached(c, key(i)); !ok {
			t.Errorf("page %d not cached", i)
		}
	}
	if got := c.Bytes(); got != 300 {
		t.Errorf("Bytes = %d, want 300", got)
	}
	if snap := stats.Snapshot(); snap.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", snap.Evictions)
	}

	// Touching page 1 protects it from the next eviction.
	if _, err := c.Get(ctx, key(1), fetchFor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, key(4), fetchFor(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cached(c, key(1)); !ok {
		t.Error("recently used page 1 evicted")
	}
	if _, ok := cached(c, key(2)); ok {
		t.Error("page 2 still cached, want evicted")
	}
}

func TestPutUpgradesEntry(t *testing.T) {
	c := New(1000, nil)
	short := func(context.Context) ([]byte, error) { return page(2, 40), nil }
	if _, err := c.Get(ctx, key(2), short); err != nil {
		t.Fatal(err)
	}
	// Upgrading replaces the entry and fixes the byte accounting.
	c.Put(key(2), page(2, 128))
	got, ok := cached(c, key(2))
	if !ok || len(got) != 128 {
		t.Fatalf("after upgrade: %d bytes cached, want 128", len(got))
	}
	if c.Bytes() != 128 {
		t.Errorf("Bytes = %d, want 128", c.Bytes())
	}
	// A shorter Put never downgrades.
	c.Put(key(2), page(2, 64))
	if got, _ := cached(c, key(2)); len(got) != 128 {
		t.Errorf("downgraded to %d bytes, want 128 kept", len(got))
	}
	if c.Bytes() != 128 {
		t.Errorf("Bytes = %d after no-op Put, want 128", c.Bytes())
	}
}

func TestOversizedPageNotCached(t *testing.T) {
	c := New(100, nil)
	big := func(context.Context) ([]byte, error) { return page(9, 200), nil }
	got, err := c.Get(ctx, key(9), big)
	if err != nil || len(got) != 200 {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("cache holds %d pages / %d bytes, want empty", c.Len(), c.Bytes())
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	stats := &metrics.ReadStats{}
	c := New(1<<20, stats)
	var fetches atomic.Int64
	release := make(chan struct{})
	fetch := func(context.Context) ([]byte, error) {
		fetches.Add(1)
		<-release
		return page(7, 64), nil
	}
	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Get(ctx, key(7), fetch)
			if err == nil && len(got) != 64 {
				err = fmt.Errorf("got %d bytes", len(got))
			}
			errs <- err
		}()
	}
	// Let every goroutine reach the cache before the fetch completes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("fetches = %d, want 1 (singleflight)", n)
	}
	snap := stats.Snapshot()
	if snap.Misses != 1 || snap.Hits != readers-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", snap.Hits, snap.Misses, readers-1)
	}
}

func TestFailedFlightDoesNotPoisonJoiners(t *testing.T) {
	c := New(1<<20, nil)
	bad := errors.New("leader failed")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderFetch := func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, bad
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, key(5), leaderFetch)
		leaderErr <- err
	}()
	<-started
	joinDone := make(chan error, 1)
	go func() {
		// The joiner's retry fetch succeeds after the leader's failure.
		_, err := c.Get(ctx, key(5), func(context.Context) ([]byte, error) {
			return page(5, 32), nil
		})
		joinDone <- err
	}()
	// Give the joiner time to attach to the flight, then fail it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-leaderErr; !errors.Is(err, bad) {
		t.Fatalf("leader err = %v, want %v", err, bad)
	}
	if err := <-joinDone; err != nil {
		t.Fatalf("joiner err = %v, want nil (retry as fresh flight)", err)
	}
	// The retry's result must have landed in the cache.
	if _, ok := cached(c, key(5)); !ok {
		t.Error("joiner's successful retry was not cached")
	}
}

func TestGetHonoursContextWhileWaiting(t *testing.T) {
	c := New(1<<20, nil)
	started := make(chan struct{})
	block := make(chan struct{})
	go c.Get(ctx, key(8), func(context.Context) ([]byte, error) {
		close(started)
		<-block
		return page(8, 16), nil
	})
	<-started
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err := c.Get(cctx, key(8), func(context.Context) ([]byte, error) {
		t.Error("joiner fetch ran despite cancelled context")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
}

func TestConcurrentMixedWorkload(t *testing.T) {
	// Hammer a small cache from many goroutines with overlapping keys:
	// the -race CI job turns this into the cache's race check.
	stats := &metrics.ReadStats{}
	c := New(32*64, stats)
	const workers, pages, rounds = 8, 64, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := uint64((w*13 + r) % pages)
				got, err := c.Get(ctx, key(i), func(context.Context) ([]byte, error) {
					return page(i, 64), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				want := page(i, 64)
				if got[0] != want[0] || got[63] != want[63] {
					t.Errorf("page %d content mismatch", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Bytes(); got > c.Budget() {
		t.Errorf("Bytes = %d over budget %d", got, c.Budget())
	}
	snap := stats.Snapshot()
	if snap.Hits+snap.Misses != workers*rounds {
		t.Errorf("hits+misses = %d, want %d", snap.Hits+snap.Misses, workers*rounds)
	}
}

func TestReadaheadSchedulesWindow(t *testing.T) {
	var mu sync.Mutex
	fetched := map[uint64]int{}
	done := make(chan uint64, 64)
	stats := &metrics.ReadStats{}
	ra := NewReadahead(ctx, 4, stats, func(_ context.Context, p uint64) {
		mu.Lock()
		fetched[p]++
		mu.Unlock()
		done <- p
	})
	defer ra.Close()

	ra.Observe(0, 100)
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for readahead fetches")
		}
	}
	mu.Lock()
	for p := uint64(1); p <= 4; p++ {
		if fetched[p] != 1 {
			t.Errorf("page %d fetched %d times, want 1", p, fetched[p])
		}
	}
	mu.Unlock()

	// Advancing by one page schedules exactly the one new page.
	ra.Observe(1, 100)
	select {
	case p := <-done:
		if p != 5 {
			t.Errorf("next readahead = page %d, want 5", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for incremental readahead")
	}
	mu.Lock()
	for p, n := range fetched {
		if n != 1 {
			t.Errorf("page %d fetched %d times, want 1", p, n)
		}
	}
	mu.Unlock()
	if snap := stats.Snapshot(); snap.Readahead != 5 {
		t.Errorf("readahead counter = %d, want 5", snap.Readahead)
	}
}

// TestReadaheadSeekSchedulesNothing: a forward seek past the window is a
// random access, not a stream, and fetches nothing ahead of itself.
func TestReadaheadSeekSchedulesNothing(t *testing.T) {
	done := make(chan uint64, 16)
	stats := &metrics.ReadStats{}
	ra := NewReadahead(ctx, 4, stats, func(_ context.Context, p uint64) { done <- p })
	defer ra.Close()
	ra.Observe(0, 100)
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for the first window")
		}
	}
	ra.Observe(40, 100)
	select {
	case p := <-done:
		t.Errorf("a seek to page 40 fetched page %d", p)
	case <-time.After(50 * time.Millisecond):
	}
	if snap := stats.Snapshot(); snap.Readahead != 4 {
		t.Errorf("readahead counter = %d, want 4: the first window alone", snap.Readahead)
	}
}

// TestReadaheadResumesAfterSeek: the access of the page after a seek's
// is a stream again, and the window resumes from it.
func TestReadaheadResumesAfterSeek(t *testing.T) {
	done := make(chan uint64, 16)
	ra := NewReadahead(ctx, 2, nil, func(_ context.Context, p uint64) { done <- p })
	defer ra.Close()
	collect := func() map[uint64]bool {
		t.Helper()
		got := map[uint64]bool{}
		for len(got) < 2 {
			select {
			case p := <-done:
				got[p] = true
			case <-time.After(2 * time.Second):
				t.Fatalf("timed out with %v fetched", got)
			}
		}
		return got
	}
	ra.Observe(0, 100)
	if got := collect(); !got[1] || !got[2] {
		t.Fatalf("the first window fetched %v, want pages 1 and 2", got)
	}
	// A fetch reports its page before it frees its slot; with a slot
	// still busy the window below would schedule one page, not two.
	for deadline := time.Now().Add(2 * time.Second); len(ra.sem) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first window's fetches kept their slots")
		}
	}
	ra.Observe(10, 100)
	ra.Observe(11, 100)
	if got := collect(); !got[12] || !got[13] {
		t.Errorf("after a seek to 10 and a read of 11 the window fetched %v, want pages 12 and 13", got)
	}
}

func TestReadaheadRespectsLimit(t *testing.T) {
	done := make(chan uint64, 16)
	ra := NewReadahead(ctx, 8, nil, func(_ context.Context, p uint64) { done <- p })
	defer ra.Close()
	ra.Observe(2, 4) // only page 3 exists ahead
	select {
	case p := <-done:
		if p != 3 {
			t.Errorf("fetched page %d, want 3", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out")
	}
	ra.Observe(3, 4) // at the end: nothing to schedule
	select {
	case p := <-done:
		t.Errorf("unexpected fetch of page %d past the limit", p)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestReadaheadCloseCancelsAndDrains(t *testing.T) {
	entered := make(chan struct{}, 8)
	var cancelled atomic.Int64
	ra := NewReadahead(ctx, 2, nil, func(fctx context.Context, p uint64) {
		entered <- struct{}{}
		<-fctx.Done()
		cancelled.Add(1)
	})
	ra.Observe(0, 100)
	<-entered
	<-entered
	fin := make(chan struct{})
	go func() { ra.Close(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not drain in-flight fetches")
	}
	if n := cancelled.Load(); n != 2 {
		t.Errorf("cancelled fetches = %d, want 2", n)
	}
	ra.Observe(5, 100) // after Close: must be a no-op, not a panic
	ra.Close()         // idempotent
}

func TestReadaheadNeverBlocksReader(t *testing.T) {
	block := make(chan struct{})
	ra := NewReadahead(ctx, 2, nil, func(context.Context, uint64) { <-block })
	defer ra.Close()
	defer close(block) // unblock fetches before the deferred Close drains them
	fin := make(chan struct{})
	go func() {
		// Both slots fill and stay busy; further Observes must return
		// immediately anyway.
		for i := uint64(0); i < 20; i++ {
			ra.Observe(i, 1000)
		}
		close(fin)
	}()
	select {
	case <-fin:
	case <-time.After(2 * time.Second):
		t.Fatal("Observe blocked on a saturated readahead window")
	}
}

func TestNilReadaheadIsDisabled(t *testing.T) {
	ra := NewReadahead(ctx, 0, nil, func(context.Context, uint64) {
		t.Error("fetch ran on disabled readahead")
	})
	if ra != nil {
		t.Fatal("depth 0 should return nil")
	}
	ra.Observe(0, 10)
	ra.Close()
}

// TestPurgeVersionAndBlob: the garbage collector's invalidation path
// removes exactly the targeted version's (or BLOB's) entries, returns
// the count, and releases their bytes.
func TestPurgeVersionAndBlob(t *testing.T) {
	c := New(1<<20, nil)
	put := func(blob, ver, idx uint64) {
		k := pagestore.Key{Blob: blob, Version: ver, Index: idx}
		if _, err := c.Get(ctx, k, func(context.Context) ([]byte, error) {
			return page(idx, 128), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3; i++ {
		put(1, 1, i)
		put(1, 2, i)
		put(2, 1, i)
	}
	if n := c.PurgeVersion(1, 1); n != 3 {
		t.Fatalf("PurgeVersion removed %d, want 3", n)
	}
	if _, ok := cached(c, pagestore.Key{Blob: 1, Version: 1, Index: 0}); ok {
		t.Fatal("purged entry still cached")
	}
	if _, ok := cached(c, pagestore.Key{Blob: 1, Version: 2, Index: 0}); !ok {
		t.Fatal("sibling version was purged")
	}
	if n := c.PurgeBlob(1); n != 3 {
		t.Fatalf("PurgeBlob removed %d, want the remaining 3", n)
	}
	if _, ok := cached(c, pagestore.Key{Blob: 2, Version: 1, Index: 0}); !ok {
		t.Fatal("other blob was purged")
	}
	if got, want := c.Bytes(), int64(3*128); got != want {
		t.Fatalf("bytes after purges = %d, want %d", got, want)
	}
}

// TestPurgeMarksInFlightFetches: a purge landing while a fetch is in
// flight must keep that fetch's result out of the cache — the waiting
// callers still get the (correct, immutable) bytes, but nothing is
// re-inserted behind the purge.
func TestPurgeMarksInFlightFetches(t *testing.T) {
	c := New(1<<20, nil)
	k := key(7)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan []byte, 1)
	go func() {
		data, err := c.Get(ctx, k, func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return page(7, 64), nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- data
	}()
	<-started
	c.PurgeVersion(k.Blob, k.Version) // lands mid-flight
	close(release)
	if data := <-done; len(data) != 64 {
		t.Fatalf("in-flight caller got %d bytes", len(data))
	}
	if _, ok := cached(c, k); ok {
		t.Fatal("purged in-flight fetch was cached anyway")
	}
}
