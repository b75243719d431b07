package segtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blobseer/internal/pagestore"
)

// indexedModel is a byteModel whose every write also extends an Index,
// as the blob client's record cache grows.
type indexedModel struct {
	*byteModel
	ix Index
}

func (m *indexedModel) put(t *testing.T, start uint64, n int, sealed bool) {
	t.Helper()
	m.write(t, start, bytes.Repeat([]byte{byte(len(m.history) + 1)}, n), sealed)
	m.ix.Extend(m.history)
}

// locateMatches checks Index.Locate against Resolve, the reference
// descent, on every version of the model, slot for slot — order, Lo,
// holes and chains: through the model's warm cache for every page range
// when every is set, else for each single page and each suffix, and
// through the bare store for the whole version. Both refuse a range past
// the version's end, and Locate a version the index does not hold.
func (m *indexedModel) locateMatches(t *testing.T, every bool) {
	t.Helper()
	if got := m.ix.Len(); got != uint64(len(m.history)) {
		t.Fatalf("the index holds %d records of %d", got, len(m.history))
	}
	check := func(store NodeStore, v, pages, off, n uint64) {
		t.Helper()
		want, err := Resolve(ctx, m.cache, m.blob, v, pages, off, n)
		if err != nil {
			t.Fatalf("resolve v%d pages [%d,%d): %v", v, off, off+n, err)
		}
		got, err := m.ix.Locate(ctx, store, m.blob, v, off, n)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d %+v pages [%d,%d): Locate = %v, %v; Resolve = %v", v, m.history[v-1], off, off+n, got, err, want)
		}
	}
	for v := uint64(1); v <= uint64(len(m.history)); v++ {
		pages := m.history[v-1].PagesAfter
		check(m.store, v, pages, 0, pages)
		for off := uint64(0); off < pages; off++ {
			if !every {
				check(m.cache, v, pages, off, 1)
				check(m.cache, v, pages, off, pages-off)
				continue
			}
			for n := uint64(1); off+n <= pages; n++ {
				check(m.cache, v, pages, off, n)
			}
		}
		if _, err := m.ix.Locate(ctx, m.store, m.blob, v, pages, 1); err == nil {
			t.Fatalf("v%d: Locate past the version's %d pages succeeded", v, pages)
		}
	}
	if _, err := m.ix.Locate(ctx, m.store, m.blob, uint64(len(m.history))+1, 0, 1); err == nil {
		t.Fatal("Locate of a version the index does not hold succeeded")
	}
}

// TestLocateMatchesResolve: reading by address returns what the
// reference descent returns, for every version and page range, on
// byteModel histories with the index extended after every write: random
// ones (aligned and unaligned appends, overwrites, writes past the end,
// whole-page and fragment seals) and three built for one feature each —
// a BLOB that begins with holes, a grid that grows from one page past
// 64, and a slot whose chain grows to MaxSlotFragments and compacts.
func TestLocateMatchesResolve(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := &indexedModel{byteModel: newByteModel(uint64(300+seed), 32)}
			for v := 0; v < 30; v++ {
				m.randomWrite(t, rng)
				m.ix.Extend(m.history)
			}
			m.locateMatches(t, true)
		})
	}
	t.Run("leading hole", func(t *testing.T) {
		m := &indexedModel{byteModel: newByteModel(310, 32)}
		m.put(t, 3*32+5, 32, false)    // pages 0 to 2 are holes, page 3 begins at byte 5
		m.put(t, m.size(), 10, false)  // an unaligned append: a fragment
		m.put(t, 40, 20, false)        // into a hole
		m.put(t, m.size()+70, 3, true) // sealed, past the end
		m.put(t, m.size(), 64, false)
		m.locateMatches(t, true)
	})
	t.Run("grid growth", func(t *testing.T) {
		m := &indexedModel{byteModel: newByteModel(311, 16)}
		for i := 0; i < 24; i++ {
			m.put(t, m.size(), 16*(1+i%3), i%7 == 6)
		}
		m.put(t, m.size()+16*30, 16, false)
		if pages := m.history[len(m.history)-1].PagesAfter; RootSpan(pages) < 64 {
			t.Fatalf("the grid grew to %d pages only", pages)
		}
		m.locateMatches(t, true)
	})
	t.Run("chains", func(t *testing.T) {
		m := &indexedModel{byteModel: newByteModel(312, 256)}
		longest := 0
		for i := 0; i < 100; i++ {
			m.put(t, m.size(), 3, i%13 == 12)
			var buf [MaxSlotFragments]Frag
			longest = max(longest, len(Chain(m.history, m.history[len(m.history)-1].Off, buf[:0])))
		}
		if longest != MaxSlotFragments {
			t.Fatalf("the longest chain has %d pages, want %d", longest, MaxSlotFragments)
		}
		m.locateMatches(t, true)
	})
}

// TestLocateFarPastTheEnd: a write far past a BLOB's end leaves a hole
// the index makes no slots for — it holds the chunks records stored
// into, not every page up to the highest — and the BLOB reads the same
// by address as by descent before the hole, inside it and after it.
func TestLocateFarPastTheEnd(t *testing.T) {
	const blob, far = 7, uint64(1) << 40
	store := NewMemStore()
	var (
		ix      Index
		history []WriteRecord
	)
	commit := func(w WriteRecord, sealed bool) {
		t.Helper()
		w.Ver = uint64(len(history)) + 1
		refs := make([]PageRef, w.N)
		for i := range refs {
			refs[i] = PageRef{Hole: true}
			if !sealed {
				refs[i] = PageRef{Page: pagestore.Key{Blob: blob, Version: w.Ver, Index: w.Off + uint64(i)}, Providers: []string{"prov/provider"}}
			}
		}
		if err := Commit(ctx, store, blob, w, history, refs); err != nil {
			t.Fatalf("commit %+v: %v", w, err)
		}
		history = append(history, w)
		ix.Extend(history)
	}
	commit(WriteRecord{Off: 0, N: 3, PagesAfter: 3}, false)
	commit(WriteRecord{Off: far, N: 2, PagesAfter: far + 2}, false)              // its last page partly filled
	commit(WriteRecord{Off: far + 1, N: 1, PagesAfter: far + 2, Head: 5}, false) // an unaligned append: a fragment
	commit(WriteRecord{Off: 1, N: 1, PagesAfter: far + 2}, false)                // an overwrite before the hole
	commit(WriteRecord{Off: far + 10, N: 1, PagesAfter: far + 11}, true)         // sealed, past the end again
	if len(ix.chunks) != 2 {
		t.Fatalf("the index made %d chunks of %d slots for pages 0 to 2 and %d to %d", len(ix.chunks), slotChunk, far, far+10)
	}
	ranges := [][2]uint64{{0, 4}, {1, 2}, {2, 3}, {far / 2, far/2 + 8}, {far - 3, far + 12}, {far, far + 1}, {far + 1, far + 2}, {far + 10, far + 11}}
	for v := uint64(1); v <= uint64(len(history)); v++ {
		pages := history[v-1].PagesAfter
		for _, r := range ranges {
			off, end := r[0], min(r[1], pages)
			if off >= end {
				continue
			}
			want, err := Resolve(ctx, store, blob, v, pages, off, end-off)
			if err != nil {
				t.Fatalf("resolve v%d pages [%d,%d): %v", v, off, end, err)
			}
			got, err := ix.Locate(ctx, NewNodeCache(store), blob, v, off, end-off)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d pages [%d,%d): Locate = %v, %v; Resolve = %v", v, off, end, got, err, want)
			}
		}
	}
}

// FuzzLocateMatchesResolve: a history the fuzzer scripts, three bytes a
// write — where it starts (appended, inside the BLOB, or past its end),
// how long it is, and whether it is sealed — reads the same by address
// as by descent, for every version, each single page and each suffix.
func FuzzLocateMatchesResolve(f *testing.F) {
	// More seeds are in testdata/fuzz.
	f.Add([]byte{0, 31, 1, 0, 5, 1, 1, 16, 8})
	f.Fuzz(func(t *testing.T, script []byte) {
		const ps, maxWrites = 16, 32
		m := &indexedModel{byteModel: newByteModel(9, ps)}
		for i := 0; i+3 <= len(script) && i < 3*maxWrites; i += 3 {
			where, length, flags := script[i], script[i+1], script[i+2]
			start := m.size()
			switch where % 3 {
			case 1: // inside the BLOB
				if start > 0 {
					start = uint64(where/3) % start
				}
			case 2: // past the end
				start += 1 + uint64(where/3)%(3*ps)
			}
			m.put(t, start, 1+int(length)%(3*ps), flags%8 == 0)
		}
		m.locateMatches(t, false)
	})
}
