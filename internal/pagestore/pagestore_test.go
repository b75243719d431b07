package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// engines returns a fresh instance of every Store implementation.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"memory":     NewMemory(),
		"synthesize": NewSynthesize(),
	}
}

// read returns a copy of the page s holds at k, through a pin.
func read(s Store, k Key) ([]byte, error) {
	p, err := s.Pin(k)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return bytes.Clone(p.Bytes()), nil
}

// has reports whether s holds the page at k.
func has(s Store, k Key) bool {
	_, err := read(s, k)
	return err == nil
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
			got, err := read(s, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(data) {
				t.Fatalf("len = %d, want %d", len(got), len(data))
			}
			if name != "synthesize" && !bytes.Equal(got, data) {
				t.Fatalf("content mismatch: %q", got)
			}
			if !has(s, k) {
				t.Error("stored page not found")
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
			if _, err := s.Pin(Key{Blob: 1}); !errors.Is(err, ErrNotFound) {
				t.Errorf("Pin missing: %v", err)
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
			if n, ok := s.Delete(k); n != 3 || !ok {
				t.Fatalf("Delete = %d, %v; want 3, true", n, ok)
			}
			if has(s, k) || s.Len() != 0 || s.BytesUsed() != 0 {
				t.Errorf("state after delete: has=%v len=%d bytes=%d",
					has(s, k), s.Len(), s.BytesUsed())
			}
			// Deleting again is fine and drops nothing.
			if n, ok := s.Delete(k); n != 0 || ok {
				t.Fatalf("second Delete = %d, %v; want 0, false", n, ok)
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
	got, err := s.Pin(k)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got.Bytes()[0] != 'm' {
		t.Error("Put did not copy the page")
	}
	// Pin shares the stored page (no copy per read).
	again, _ := s.Pin(k)
	defer again.Release()
	if again != got {
		t.Error("Pin copied the page")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	s := NewSynthesize()
	k := Key{Blob: 5, Version: 9, Index: 13}
	if err := s.Put(k, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	a, err := read(s, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := read(s, k)
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
	c, _ := read(s, Key{Blob: 5, Version: 9, Index: 14})
	if bytes.Equal(a, c) {
		t.Error("distinct keys synthesized identical content")
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
						if _, err := read(s, k); err != nil {
							t.Errorf("pin: %v", err)
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

func BenchmarkSynthesizePin64K(b *testing.B) {
	s := NewSynthesize()
	k := Key{Blob: 1, Version: 1, Index: 1}
	if err := s.Put(k, make([]byte, 64<<10)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := s.Pin(k)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
