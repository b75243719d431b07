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
// deleted its buffer holds the next page of its size class.
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

	// An unpinned page's buffer is reused by the next Put of its class:
	// 100 and 97 bytes both take a 104-byte buffer.
	pb, err := m.Pin(b)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	m.Delete(b)
	if err := m.Put(a, fill('c', 97)); err != nil {
		t.Fatal(err)
	}
	if got := stored(m, a); &got[0] != &pb.Bytes()[0] || !bytes.Equal(got, fill('c', 97)) {
		t.Error("the next Put of a released, deleted page's class did not reuse its buffer")
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

// TestRecycleRetentionBound: the capacity on the free list plus that
// of stored pages never exceeds the most the stored pages reached, so
// pages more than an octave below every free class evict free buffers
// rather than add to them. The bound counts capacity: a 1000-byte page
// holds a buffer of its class, 1024 bytes, and so does a 500-byte page
// stored in a freed one, while BytesUsed counts their payload.
func TestRecycleRetentionBound(t *testing.T) {
	m := NewMemory()
	check := func(step string) transport.RecycleStats {
		t.Helper()
		st := m.Recycled()
		if st.Held+st.Free > st.Peak {
			t.Fatalf("%s: %d held + %d free > peak %d", step, st.Held, st.Free, st.Peak)
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		var capacity int64
		for _, p := range m.pages {
			capacity += int64(cap(p.data))
		}
		if st.Held != capacity {
			t.Fatalf("%s: %d held, %d stored capacity with no Put running", step, st.Held, capacity)
		}
		return st
	}
	put := func(step string, k Key, size int) {
		t.Helper()
		if err := m.Put(k, fill('a', size)); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	const n, size, class = 8, 1000, 1024
	for i := 0; i < n; i++ {
		put("fill", Key{Index: uint64(i)}, size)
	}
	if used := m.BytesUsed(); used != n*size {
		t.Fatalf("BytesUsed = %d, want the %d bytes stored", used, n*size)
	}
	for i := 0; i < n; i++ {
		m.Delete(Key{Index: uint64(i)})
		check("delete")
	}
	if st := check("deleted"); st.Free != n*class {
		t.Fatalf("%d bytes free after deleting %d pages of class %d", st.Free, n, class)
	}

	// Half pages (class 512) are within an octave of the free class:
	// each is stored in a freed 1024-byte buffer.
	for i := 0; i < 3; i++ {
		put("half pages", Key{Version: 1, Index: uint64(i)}, size/2)
	}
	st := check("half pages")
	if st.Reused != 3 || st.Free != (n-3)*class || st.Peak != n*class {
		t.Errorf("stats %+v, want 3 reuses, %d bytes free and peak %d: half pages reuse the freed buffers", st, (n-3)*class, n*class)
	}
	if used := m.BytesUsed(); used != 3*size/2 {
		t.Errorf("BytesUsed = %d, want the %d bytes of payload", used, 3*size/2)
	}
	for i := 0; i < 3; i++ {
		m.Delete(Key{Version: 1, Index: uint64(i)})
		check("delete half pages")
	}

	// Quarter pages (class 256) are more than an octave below it: they
	// are fresh, and five of them evict two free pages.
	for i := 0; i < 5; i++ {
		put("quarter pages", Key{Version: 2, Index: uint64(i)}, size/4)
	}
	st = check("quarter pages")
	if st.Peak != n*class {
		t.Errorf("peak = %d, want %d: stored capacity never went above it", st.Peak, n*class)
	}
	if st.Free != (n-2)*class || st.Reused != 3 {
		t.Errorf("%d bytes free and %d reuses, want %d and 3: five quarter pages evict two free pages", st.Free, st.Reused, (n-2)*class)
	}
	// What is left is still reused.
	put("reuse", Key{Version: 3}, size)
	if st := check("reuse"); st.Free != (n-3)*class || st.Reused != 4 {
		t.Errorf("%d bytes free and %d reuses, want %d and 4 after a reuse", st.Free, st.Reused, (n-3)*class)
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

// TestConcurrentDeleteReportsItsPage: Delete reports the length of the
// page it removed, even when a concurrent Put of the same size class
// takes that page's buffer the moment Delete frees it. Each goroutine
// stores its own length, all in the 4 KiB class.
func TestConcurrentDeleteReportsItsPage(t *testing.T) {
	const workers, rounds = 4, 500
	m := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 4096 - 100*g
			for r := 0; r < rounds; r++ {
				k := Key{Blob: uint64(g), Version: uint64(r)}
				if err := m.Put(k, fill(byte(g), n)); err != nil {
					t.Error(err)
					return
				}
				pg, err := m.Pin(k)
				if err != nil {
					t.Error(err)
					return
				}
				pg.Release()
				if got, ok := m.Delete(k); !ok || got != n {
					t.Errorf("Delete(%s) = %d, %v; want %d, true", k, got, ok, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() != 0 || m.BytesUsed() != 0 {
		t.Errorf("after every delete: Len %d, BytesUsed %d", m.Len(), m.BytesUsed())
	}
}
