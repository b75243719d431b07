package segtree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickAppendSequences drives random append-only workloads through
// testing/quick at byte granularity: for any sequence of append sizes —
// most of them unaligned, so most versions store a fragment — every
// version's full read must match the flat reference model, and
// VersionNodes must list exactly the keys each commit stored.
func TestQuickAppendSequences(t *testing.T) {
	f := func(sizes []uint8, blobSeed uint16) bool {
		if len(sizes) > 48 {
			sizes = sizes[:48]
		}
		m := newByteModel(uint64(blobSeed)+1000, 16)
		rng := rand.New(rand.NewSource(int64(blobSeed)))
		for _, s := range sizes {
			data := make([]byte, s%40+1)
			rng.Read(data)
			m.write(t, m.size(), data, false)
		}
		m.verify(t)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartialResolves checks arbitrary byte ranges of a BLOB grown
// by mixed writes against the model, and that Resolve answers a range of
// pages with one slot prefix per page whatever else it returns.
func TestQuickPartialResolves(t *testing.T) {
	m := newByteModel(55, 16)
	rng := rand.New(rand.NewSource(7))
	for v := 1; v <= 60; v++ {
		m.randomWrite(t, rng)
	}
	ver := uint64(len(m.content))
	want := m.content[ver-1]
	size := uint64(len(want))
	pages := (size + m.ps - 1) / m.ps

	f := func(a, b uint16) bool {
		lo := uint64(a) % size
		n := uint64(b)%(size-lo) + 1
		if got := m.read(t, ver, lo, n); !bytes.Equal(got, want[lo:lo+n]) {
			t.Logf("bytes [%d,%d) read wrong from byte %d on", lo, lo+n, lo+uint64(firstDiff(got, want[lo:lo+n])))
			return false
		}
		first, last := lo/m.ps, (lo+n-1)/m.ps
		slots := m.resolve(t, ver, pages, first, last-first+1)
		next := first
		for i, s := range slots {
			switch {
			case s.Ref.Lo == 0 && s.Index == next:
				next++
			case s.Ref.Lo != 0 && i > 0 && s.Index == slots[i-1].Index && s.Ref.Lo > slots[i-1].Ref.Lo:
			default:
				t.Logf("pages [%d,%d]: entry %d is page %d offset %d, out of order", first, last, i, s.Index, s.Ref.Lo)
				return false
			}
		}
		return next == last+1
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
