package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// engines returns a fresh instance of every Store implementation.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	durable, err := OpenDurable(filepath.Join(t.TempDir(), "pages.log"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"memory":     NewMemory(),
		"durable":    durable,
		"synthesize": NewSynthesize(),
	}
}

func TestPutGetAcrossEngines(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			k := Key{Blob: 3, Version: 7, Index: 42}
			data := []byte("page content here")
			if err := s.Put(k, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(data) {
				t.Fatalf("len = %d, want %d", len(got), len(data))
			}
			if name != "synthesize" && !bytes.Equal(got, data) {
				t.Fatalf("content mismatch: %q", got)
			}
			if !s.Has(k) {
				t.Error("Has = false")
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d", s.Len())
			}
			if s.BytesUsed() != int64(len(data)) {
				t.Errorf("BytesUsed = %d", s.BytesUsed())
			}
		})
	}
}

func TestMissingPage(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, err := s.Get(Key{Blob: 1}); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing: %v", err)
			}
			if s.Has(Key{Blob: 1}) {
				t.Error("Has missing = true")
			}
		})
	}
}

func TestDeleteAcrossEngines(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			k := Key{Blob: 1, Version: 1, Index: 0}
			if err := s.Put(k, []byte("abc")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			if s.Has(k) || s.Len() != 0 || s.BytesUsed() != 0 {
				t.Errorf("state after delete: has=%v len=%d bytes=%d",
					s.Has(k), s.Len(), s.BytesUsed())
			}
			// Deleting again is fine.
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOverwriteAccounting(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			k := Key{Blob: 9, Version: 2, Index: 5}
			if err := s.Put(k, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, make([]byte, 40)); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d", s.Len())
			}
			if got := s.BytesUsed(); got != 40 {
				t.Errorf("BytesUsed = %d, want 40", got)
			}
		})
	}
}

func TestMemoryPutCopies(t *testing.T) {
	s := NewMemory()
	data := []byte("mutable")
	k := Key{Blob: 1}
	if err := s.Put(k, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'm' {
		t.Error("Put did not copy the page")
	}
	// Get shares the stored, immutable slice (no copy per read), and a
	// re-put replaces the entry without touching bytes a reader holds.
	again, _ := s.Get(k)
	if &again[0] != &got[0] {
		t.Error("Get copied the page")
	}
	if err := s.Put(k, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutable" {
		t.Errorf("re-put rewrote a slice a reader holds: %q", got)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	s := NewSynthesize()
	k := Key{Blob: 5, Version: 9, Index: 13}
	if err := s.Put(k, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	a, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("synthesized content not deterministic")
	}
	// Different keys produce different content (overwhelmingly likely).
	if err := s.Put(Key{Blob: 5, Version: 9, Index: 14}, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Get(Key{Blob: 5, Version: 9, Index: 14})
	if bytes.Equal(a, c) {
		t.Error("distinct keys synthesized identical content")
	}
}

func TestDurablePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	s, err := OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Blob: 2, Version: 3, Index: 4}
	if err := s.Put(k, []byte("durable bytes")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(k)
	if err != nil || string(got) != "durable bytes" {
		t.Fatalf("reopen Get = %q, %v", got, err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						k := Key{Blob: uint64(g), Version: 1, Index: uint64(i)}
						if err := s.Put(k, []byte(fmt.Sprintf("%d-%d", g, i))); err != nil {
							t.Errorf("put: %v", err)
							return
						}
						if _, err := s.Get(k); err != nil {
							t.Errorf("get: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if s.Len() != 400 {
				t.Errorf("Len = %d, want 400", s.Len())
			}
		})
	}
}

func TestKeyStringUnique(t *testing.T) {
	f := func(b1, v1, i1, b2, v2, i2 uint64) bool {
		k1 := Key{Blob: b1, Version: v1, Index: i1}
		k2 := Key{Blob: b2, Version: v2, Index: i2}
		if k1 == k2 {
			return k1.String() == k2.String()
		}
		return k1.String() != k2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFillSeedSensitivity(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	Fill(a, 1)
	Fill(b, 2)
	if bytes.Equal(a, b) {
		t.Error("Fill ignores seed")
	}
	c := make([]byte, 256)
	Fill(c, 1)
	if !bytes.Equal(a, c) {
		t.Error("Fill not deterministic")
	}
}

func BenchmarkMemoryPut64K(b *testing.B) {
	s := NewMemory()
	page := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := Key{Blob: 1, Version: uint64(i), Index: 0}
		if err := s.Put(k, page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeGet64K(b *testing.B) {
	s := NewSynthesize()
	k := Key{Blob: 1, Version: 1, Index: 1}
	if err := s.Put(k, make([]byte, 64<<10)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDurableAutoCompact: deleting pages accrues dead bytes in the
// kvlog; once they cross the configured threshold, MaybeCompact
// rewrites the log and the file shrinks. Below the threshold it must
// leave the log alone.
func TestDurableAutoCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d, err := OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetCompactThreshold(4096)

	page := make([]byte, 1024)
	for i := range page {
		page[i] = byte(i)
	}
	for i := uint64(0); i < 8; i++ {
		if err := d.Put(Key{Blob: 1, Version: 1, Index: i}, page); err != nil {
			t.Fatal(err)
		}
	}

	// One deletion: dead bytes below the threshold, no compaction.
	if err := d.Delete(Key{Blob: 1, Version: 1, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if did, err := d.MaybeCompact(); err != nil || did {
		t.Fatalf("MaybeCompact below threshold: did=%v err=%v", did, err)
	}

	// Delete most pages: dead bytes cross the threshold.
	for i := uint64(1); i < 6; i++ {
		if err := d.Delete(Key{Blob: 1, Version: 1, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	totalBefore, _ := d.log.Size()
	did, err := d.MaybeCompact()
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("MaybeCompact above threshold did not compact")
	}
	totalAfter, live := d.log.Size()
	if totalAfter >= totalBefore {
		t.Errorf("log did not shrink: %d -> %d", totalBefore, totalAfter)
	}
	if live != 2*1024 {
		t.Errorf("live bytes after compact = %d, want %d", live, 2*1024)
	}
	// Surviving pages still read back.
	for i := uint64(6); i < 8; i++ {
		got, err := d.Get(Key{Blob: 1, Version: 1, Index: i})
		if err != nil || len(got) != len(page) {
			t.Fatalf("page %d after compact: err=%v len=%d", i, err, len(got))
		}
	}

	// A negative threshold disarms auto-compaction entirely.
	d.SetCompactThreshold(-1)
	if err := d.Delete(Key{Blob: 1, Version: 1, Index: 6}); err != nil {
		t.Fatal(err)
	}
	if did, err := d.MaybeCompact(); err != nil || did {
		t.Fatalf("disarmed MaybeCompact: did=%v err=%v", did, err)
	}
}
