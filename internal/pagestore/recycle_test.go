package pagestore

import (
	"bytes"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/transport"
)

// Every test of this package runs with recycled page buffers
// overwritten with 0xDB, so a reader of a page whose memory went back
// to the free list sees garbage at once.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

func fill(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }

// stored returns the buffer m holds for k, unpinned, for a test that
// compares buffers or looks at one after it was freed.
func stored(m *Memory, k Key) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pages[k].data
}

// TestPinnedPageIsNotRecycled: a page pinned across its Delete and a
// Put of the same length keeps its bytes, and once released and
// deleted its buffer holds the next page of that length.
func TestPinnedPageIsNotRecycled(t *testing.T) {
	m := NewMemory()
	a, b := Key{Blob: 1}, Key{Blob: 2}
	if err := m.Put(a, fill('a', 100)); err != nil {
		t.Fatal(err)
	}
	pg, err := m.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(a)
	if err := m.Put(b, fill('b', 100)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg.Bytes(), fill('a', 100)) {
		t.Fatalf("a pinned page was recycled under its reader: %q", pg.Bytes()[:8])
	}
	pg.Release()

	// An unpinned page's buffer is reused by the next Put of its length.
	pb, err := m.Pin(b)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	m.Delete(b)
	if err := m.Put(a, fill('c', 100)); err != nil {
		t.Fatal(err)
	}
	if got := stored(m, a); &got[0] != &pb.Bytes()[0] || !bytes.Equal(got, fill('c', 100)) {
		t.Error("the next Put of a released, deleted page's length did not reuse its buffer")
	}
}

// TestRePutRecyclesOldBuffer: a re-put replaces the stored buffer,
// which is poisoned and then holds the next page of its length.
func TestRePutRecyclesOldBuffer(t *testing.T) {
	m := NewMemory()
	k := Key{Blob: 9, Version: 2, Index: 5}
	if err := m.Put(k, fill('x', 64)); err != nil {
		t.Fatal(err)
	}
	first := stored(m, k)
	if err := m.Put(k, fill('y', 64)); err != nil {
		t.Fatal(err)
	}
	if first[0] != 0xDB {
		t.Errorf("a re-put's old buffer reads %q, want it poisoned", first[:4])
	}
	if err := m.Put(Key{Blob: 10}, fill('z', 64)); err != nil {
		t.Fatal(err)
	}
	if got := stored(m, Key{Blob: 10}); &got[0] != &first[0] {
		t.Error("the next Put did not reuse the re-put page's buffer")
	}
	if again := stored(m, k); !bytes.Equal(again, fill('y', 64)) {
		t.Errorf("the re-put page reads %q", again[:4])
	}
	if used := m.BytesUsed(); used != 128 {
		t.Errorf("BytesUsed = %d, want 128", used)
	}
}

// TestRecycleRetentionBound: free bytes plus the bytes of stored pages
// never exceed the most the stored pages reached, so pages of a new
// length evict free buffers rather than add to them.
func TestRecycleRetentionBound(t *testing.T) {
	m := NewMemory()
	check := func(step string) {
		t.Helper()
		m.mu.RLock()
		defer m.mu.RUnlock()
		if m.held+m.freeBytes > m.peak {
			t.Fatalf("%s: %d held + %d free > peak %d", step, m.held, m.freeBytes, m.peak)
		}
		if m.held != m.bytes {
			t.Fatalf("%s: %d held, %d stored with no Put running", step, m.held, m.bytes)
		}
	}
	const n, size = 8, 1000
	for i := 0; i < n; i++ {
		if err := m.Put(Key{Index: uint64(i)}, fill('a', size)); err != nil {
			t.Fatal(err)
		}
		check("fill")
	}
	for i := 0; i < n; i++ {
		m.Delete(Key{Index: uint64(i)})
		check("delete")
	}
	if m.freeBytes != n*size {
		t.Fatalf("%d bytes free after deleting %d pages of %d", m.freeBytes, n, size)
	}
	for i := 0; i < 3; i++ {
		if err := m.Put(Key{Version: 1, Index: uint64(i)}, fill('b', size/2)); err != nil {
			t.Fatal(err)
		}
		check("other length")
	}
	if m.peak != n*size {
		t.Errorf("peak = %d, want %d: stored bytes never went above it", m.peak, n*size)
	}
	if m.freeBytes != (n-2)*size {
		t.Errorf("%d bytes free, want %d: three half pages evict two free pages", m.freeBytes, (n-2)*size)
	}
	// What is left is still reused.
	if err := m.Put(Key{Version: 2}, fill('c', size)); err != nil {
		t.Fatal(err)
	}
	check("reuse")
	if m.freeBytes != (n-3)*size {
		t.Errorf("%d bytes free, want %d after a reuse", m.freeBytes, (n-3)*size)
	}
}

// TestConcurrentPinRecycling: readers pin the newest page while a
// writer stores the next one and deletes the one before, so every freed
// buffer is reused at once, most often the one a reader holds. A reader
// that sees another page's bytes, or poison, read a buffer recycled
// under its pin.
func TestConcurrentPinRecycling(t *testing.T) {
	const readers, rounds, size = 4, 2000, 256
	m := NewMemory()
	var latest atomic.Int64
	key := func(r int64) Key { return Key{Blob: 1, Version: uint64(r)} }
	if err := m.Put(key(0), fill(0, size)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := int64(1); r < rounds; r++ {
			if err := m.Put(key(r), fill(byte(r), size)); err != nil {
				t.Error(err)
				return
			}
			latest.Store(r)
			m.Delete(key(r - 1))
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := int64(0); r < rounds-1; {
				r = latest.Load()
				pg, err := m.Pin(key(r))
				if err != nil {
					continue // deleted since
				}
				for range 2 {
					if b := pg.Bytes(); !bytes.Equal(b, fill(byte(r), size)) {
						t.Errorf("page %d reads %#x under its pin", r, b[0])
						break
					}
					runtime.Gosched()
				}
				pg.Release()
			}
		}()
	}
	wg.Wait()
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}
