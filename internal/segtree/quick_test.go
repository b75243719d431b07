package segtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickAppendSequences drives random append-only workloads through
// testing/quick: for any sequence of append sizes, every version's
// full-range resolution must match the flat reference model.
func TestQuickAppendSequences(t *testing.T) {
	f := func(sizes []uint8, blobSeed uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		store := NewMemStore()
		m := newModel(uint64(blobSeed) + 1000)
		off := uint64(0)
		for i, s := range sizes {
			n := uint64(s%9) + 1
			ver := uint64(i + 1)
			w := m.apply(ver, off, n)
			if err := commitCheckingKeys(store, m.blob, w, m.history[:len(m.history)-1], mkRefs(m.blob, ver, off, n)); err != nil {
				t.Logf("commit: %v", err)
				return false
			}
			off += n
		}
		// Verify every version against the model.
		for vi, w := range m.history {
			owners := m.owners[vi]
			slots, err := Resolve(ctx, store, m.blob, w.Ver, uint64(len(owners)), 0, uint64(len(owners)))
			if err != nil {
				t.Logf("resolve: %v", err)
				return false
			}
			for p, slot := range slots {
				if owners[p] == 0 && !slot.Ref.Hole {
					return false
				}
				if owners[p] != 0 && slot.Ref.Page.Version != owners[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartialResolves checks arbitrary sub-range resolutions
// against full-range ones.
func TestQuickPartialResolves(t *testing.T) {
	store := NewMemStore()
	m := newModel(55)
	rng := rand.New(rand.NewSource(7))
	off := uint64(0)
	for v := uint64(1); v <= 30; v++ {
		n := uint64(rng.Intn(7) + 1)
		w := m.apply(v, off, n)
		if err := commitCheckingKeys(store, m.blob, w, m.history[:len(m.history)-1], mkRefs(m.blob, v, off, n)); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	pages := off

	f := func(a, b uint16) bool {
		lo := uint64(a) % pages
		n := uint64(b)%(pages-lo) + 1
		slots, err := Resolve(ctx, store, m.blob, 30, pages, lo, n)
		if err != nil {
			t.Logf("resolve [%d,%d): %v", lo, lo+n, err)
			return false
		}
		if uint64(len(slots)) != n {
			return false
		}
		owners := m.owners[29]
		for i, slot := range slots {
			p := lo + uint64(i)
			if slot.Index != p || slot.Ref.Page.Version != owners[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRootSpan pins RootSpan's algebraic properties.
func TestQuickRootSpan(t *testing.T) {
	f := func(n uint32) bool {
		s := RootSpan(uint64(n))
		if n == 0 {
			return s == 0
		}
		// s is a power of two, >= n, and s/2 < n.
		if s&(s-1) != 0 {
			return false
		}
		return s >= uint64(n) && (s == 1 || s/2 < uint64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
