package cache

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"unsafe"

	"blobseer/internal/metrics"
	"blobseer/internal/transport"
)

// The counted-page tests use pooled frames, as the client's fetches
// do, so a test can watch a page's buffer go back to the pool: the
// pool hands out the frame released last first, and a frame released
// twice is handed out twice.
const (
	framed   = 1000 // a page whose frame is of the 1 KiB class
	shortLen = 300  // a page whose frame is of the smallest class
)

// framePage is page i of n bytes in a frame of its own.
func framePage(i uint64, n int) []byte { return append(transport.NewFrame(n), page(i, n)...) }

// timesPooled takes the next two frames of buf's class from the pool
// and counts those that are buf's: 1 once buf has been released once,
// 0 while something still holds it, 2 if it was released twice.
func timesPooled(buf []byte) int {
	n := 0
	for i := 0; i < 2; i++ {
		if unsafe.SliceData(transport.NewFrame(len(buf))) == unsafe.SliceData(buf) {
			n++
		}
	}
	return n
}

// checkHeld fails unless pg still shows page i and its buffer is not
// in the pool.
func checkHeld(t *testing.T, what string, pg Page, i uint64) {
	t.Helper()
	if !bytes.Equal(pg.Data, page(i, len(pg.Data))) {
		t.Fatalf("%s: a referenced page changed under its reader (%#x…)", what, pg.Data[:4])
	}
	if n := timesPooled(pg.Data); n != 0 {
		t.Fatalf("%s: a referenced page's buffer is in the pool", what)
	}
}

// checkRecycledOnce releases the last reference of buf's page and
// fails unless its buffer went back to the pool exactly once.
func checkRecycledOnce(t *testing.T, what string, pg Page) {
	t.Helper()
	buf := pg.Data
	pg.Release()
	if n := timesPooled(buf); n != 1 {
		t.Fatalf("%s: the buffer went back to the pool %d times after its last release, want 1", what, n)
	}
}

// TestEvictedPageLivesUntilReleased: eviction takes a page out of the
// budget at once, but the buffer of a page a reader still holds is
// recycled only when that reader releases it, and then once.
func TestEvictedPageLivesUntilReleased(t *testing.T) {
	stats := &metrics.ReadStats{}
	first := framePage(0, framed)
	c := New(2*int64(cap(first)), stats) // holds two pages
	held, err := c.Get(ctx, key(0), func(context.Context) ([]byte, error) { return first, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		pg, err := c.Get(ctx, key(i), func(context.Context) ([]byte, error) { return framePage(i, framed), nil })
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if _, ok := cached(c, key(0)); ok || stats.Snapshot().Evictions != 1 {
		t.Fatalf("page 0 was not evicted (%d evictions)", stats.Snapshot().Evictions)
	}
	if got, want := c.Bytes(), 2*int64(cap(first)); got != want {
		t.Errorf("Bytes = %d, want %d: an evicted page still counts", got, want)
	}
	checkHeld(t, "evicted", held, 0)
	checkRecycledOnce(t, "evicted", held)

	// A page evicted with no reader goes back to the pool at once.
	two, _ := cached(c, key(1))
	pg, err := c.Get(ctx, key(3), func(context.Context) ([]byte, error) { return framePage(3, framed), nil })
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	if n := timesPooled(two); n != 1 {
		t.Fatalf("an evicted page nobody held went back to the pool %d times, want 1", n)
	}
}

// TestPurgedPageLivesUntilReleased: the same for a page a GC purge
// drops, and for one whose purge landed while it was being fetched.
func TestPurgedPageLivesUntilReleased(t *testing.T) {
	c := New(1<<20, nil)
	held, err := c.Get(ctx, key(4), func(context.Context) ([]byte, error) { return framePage(4, framed), nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := c.PurgeVersion(1, 1); n != 1 {
		t.Fatalf("purge removed %d pages, want 1", n)
	}
	checkHeld(t, "purged", held, 4)
	checkRecycledOnce(t, "purged", held)

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan Page, 1)
	go func() {
		pg, err := c.Get(ctx, key(5), func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return framePage(5, framed), nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- pg
	}()
	<-started
	c.PurgeBlob(1)
	close(release)
	pg := <-done
	checkHeld(t, "purged in flight", pg, 5)
	checkRecycledOnce(t, "purged in flight", pg)
}

// TestUpgradedPageLivesUntilReleased: a longer copy replaces a cached
// page; the shorter one lives on for its reader and is recycled once
// released. A Put of no more bytes than the cache holds recycles the
// bytes it was given and hands out the cached copy.
func TestUpgradedPageLivesUntilReleased(t *testing.T) {
	c := New(1<<20, nil)
	short, err := c.Get(ctx, key(6), func(context.Context) ([]byte, error) { return framePage(6, shortLen), nil })
	if err != nil {
		t.Fatal(err)
	}
	long := c.Put(key(6), framePage(6, framed))
	if len(long.Data) != framed {
		t.Fatalf("Put returned %d bytes, want the %d it cached", len(long.Data), framed)
	}
	if got, _ := cached(c, key(6)); len(got) != framed {
		t.Fatalf("%d bytes cached after the upgrade, want %d", len(got), framed)
	}
	checkHeld(t, "upgraded", short, 6)
	checkRecycledOnce(t, "upgraded", short)

	again := framePage(6, shortLen)
	kept := c.Put(key(6), again)
	if unsafe.SliceData(kept.Data) != unsafe.SliceData(long.Data) {
		t.Fatal("a shorter Put did not hand out the cached copy")
	}
	if n := timesPooled(again); n != 1 {
		t.Fatalf("the bytes of a Put the cache did not keep went back to the pool %d times, want 1", n)
	}
	kept.Release()
	long.Release()
	if n := timesPooled(long.Data); n != 0 {
		t.Fatal("a cached page's buffer went back to the pool when its readers released it")
	}
}

// TestJoinerRefetchesAReleasedPage: a flight joiner shares the
// leader's page only while some reference keeps it; one that wakes
// after the page was evicted and released fetches it again rather than
// read a recycled buffer.
func TestJoinerRefetchesAReleasedPage(t *testing.T) {
	stats := &metrics.ReadStats{}
	c := New(2*int64(cap(transport.NewFrame(framed))), stats) // holds two pages
	attached, woke, evicted := make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{})
	joinHook = func(awake bool) {
		if !awake {
			attached <- struct{}{}
			return
		}
		woke <- struct{}{}
		<-evicted
	}
	defer func() { joinHook = nil }()

	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan Page, 1)
	go func() {
		pg, err := c.Get(ctx, key(8), func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return framePage(8, framed), nil
		})
		if err != nil {
			t.Error(err)
		}
		leader <- pg
	}()
	<-started
	var refetches atomic.Int32
	joiner := make(chan Page, 1)
	go func() {
		pg, err := c.Get(ctx, key(8), func(context.Context) ([]byte, error) {
			refetches.Add(1)
			return framePage(8, framed), nil
		})
		if err != nil {
			t.Error(err)
		}
		joiner <- pg
	}()
	<-attached
	close(release)
	<-woke
	first := <-leader
	first.Release()
	for i := uint64(9); i <= 10; i++ { // evict page 8
		pg, err := c.Get(ctx, key(i), func(context.Context) ([]byte, error) { return framePage(i, framed), nil })
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if _, ok := cached(c, key(8)); ok {
		t.Fatal("page 8 is still cached")
	}
	close(evicted)
	pg := <-joiner
	if !bytes.Equal(pg.Data, page(8, framed)) {
		t.Fatalf("the joiner read a recycled buffer (%#x…)", pg.Data[:4])
	}
	if n := refetches.Load(); n != 1 {
		t.Fatalf("the joiner fetched %d times, want 1", n)
	}
	if m := stats.Snapshot().Misses; m != 4 {
		t.Errorf("misses = %d, want 4 (page 8 twice, pages 9 and 10)", m)
	}
	pg.Release()
}
