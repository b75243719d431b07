package segtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"blobseer/internal/pagestore"
)

var ctx = context.Background()

// mkRefs builds page refs for a write of n pages at page off by ver.
func mkRefs(blob, ver, off, n uint64) []PageRef {
	refs := make([]PageRef, n)
	for i := range refs {
		refs[i] = PageRef{
			Page:      pagestore.Key{Blob: blob, Version: ver, Index: off + uint64(i)},
			Providers: []string{fmt.Sprintf("prov-%d/provider", (off+uint64(i))%7)},
		}
	}
	return refs
}

// model tracks expected page ownership per version.
type model struct {
	blob    uint64
	history []WriteRecord
	// owners[v] maps page index -> writing version (0 = hole), for the
	// state as of history entry v.
	owners [][]uint64
}

func newModel(blob uint64) *model { return &model{blob: blob} }

// apply records a write and returns the WriteRecord to commit.
func (m *model) apply(ver, off, n uint64) WriteRecord {
	var prev []uint64
	if len(m.owners) > 0 {
		prev = m.owners[len(m.owners)-1]
	}
	pages := off + n
	if uint64(len(prev)) > pages {
		pages = uint64(len(prev))
	}
	cur := make([]uint64, pages)
	copy(cur, prev)
	for p := off; p < off+n; p++ {
		cur[p] = ver
	}
	w := WriteRecord{Ver: ver, Off: off, N: n, PagesAfter: pages}
	m.owners = append(m.owners, cur)
	m.history = append(m.history, w)
	return w
}

// verify resolves the full range of every version and compares with the
// expected ownership.
func (m *model) verify(t *testing.T, store NodeStore) {
	t.Helper()
	for vi, w := range m.history {
		owners := m.owners[vi]
		slots, err := Resolve(ctx, store, m.blob, w.Ver, uint64(len(owners)), 0, uint64(len(owners)))
		if err != nil {
			t.Fatalf("resolve ver %d: %v", w.Ver, err)
		}
		if len(slots) != len(owners) {
			t.Fatalf("ver %d: %d slots, want %d", w.Ver, len(slots), len(owners))
		}
		for p, slot := range slots {
			if slot.Index != uint64(p) {
				t.Fatalf("ver %d: slot %d has index %d", w.Ver, p, slot.Index)
			}
			wantVer := owners[p]
			if wantVer == 0 {
				if !slot.Ref.Hole {
					t.Fatalf("ver %d page %d: want hole, got %+v", w.Ver, p, slot.Ref)
				}
				continue
			}
			if slot.Ref.Hole {
				t.Fatalf("ver %d page %d: unexpected hole, want writer %d", w.Ver, p, wantVer)
			}
			if slot.Ref.Page.Version != wantVer || slot.Ref.Page.Index != uint64(p) {
				t.Fatalf("ver %d page %d: ref %+v, want writer %d", w.Ver, p, slot.Ref.Page, wantVer)
			}
		}
	}
}

// commitModelWrite commits one write through the model.
func commitModelWrite(t *testing.T, store NodeStore, m *model, ver, off, n uint64) {
	t.Helper()
	w := m.apply(ver, off, n)
	if err := Commit(ctx, store, m.blob, w, m.history[:len(m.history)-1], mkRefs(m.blob, ver, off, n)); err != nil {
		t.Fatalf("commit ver %d: %v", ver, err)
	}
}

// TestSlotSize: PageRef.Lo sits in the padding beside Hole, so a
// resolved page costs the 64 bytes it cost before fragments.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got != 64 {
		t.Errorf("a Slot is %d bytes, want 64", got)
	}
}

func TestRootSpan(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := RootSpan(n); got != want {
			t.Errorf("RootSpan(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSingleAppend(t *testing.T) {
	store := NewMemStore()
	m := newModel(1)
	commitModelWrite(t, store, m, 1, 0, 4)
	m.verify(t, store)
}

func TestSequentialAppends(t *testing.T) {
	store := NewMemStore()
	m := newModel(2)
	off := uint64(0)
	for v := uint64(1); v <= 20; v++ {
		n := uint64(1 + (v*3)%5)
		commitModelWrite(t, store, m, v, off, n)
		off += n
	}
	m.verify(t, store) // every version, including old ones, stays intact
}

func TestOverwrites(t *testing.T) {
	store := NewMemStore()
	m := newModel(3)
	commitModelWrite(t, store, m, 1, 0, 16)
	commitModelWrite(t, store, m, 2, 4, 4)  // overwrite middle
	commitModelWrite(t, store, m, 3, 0, 1)  // overwrite first page
	commitModelWrite(t, store, m, 4, 15, 3) // extend past the end
	m.verify(t, store)
}

func TestWriteBeyondEndCreatesHoles(t *testing.T) {
	store := NewMemStore()
	m := newModel(4)
	commitModelWrite(t, store, m, 1, 0, 1) // 1 page, root span 1
	commitModelWrite(t, store, m, 2, 8, 2) // pages 1..7 are holes; grid grows
	m.verify(t, store)
}

func TestFirstWriteWithLeadingHole(t *testing.T) {
	store := NewMemStore()
	m := newModel(5)
	commitModelWrite(t, store, m, 1, 5, 3) // pages 0..4 never written
	m.verify(t, store)
}

func TestGridGrowthWrapper(t *testing.T) {
	// v1: tiny tree (span 1); v2 grows grid by 8x and does not touch
	// v1's range beyond wrapping it; v3 appends after both.
	store := NewMemStore()
	m := newModel(6)
	commitModelWrite(t, store, m, 1, 0, 1)
	commitModelWrite(t, store, m, 2, 6, 2)
	commitModelWrite(t, store, m, 3, 8, 4)
	m.verify(t, store)
}

func TestPartialResolve(t *testing.T) {
	store := NewMemStore()
	m := newModel(7)
	commitModelWrite(t, store, m, 1, 0, 32)
	commitModelWrite(t, store, m, 2, 10, 5)

	slots, err := Resolve(ctx, store, 7, 2, 32, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 10 {
		t.Fatalf("got %d slots", len(slots))
	}
	for i, s := range slots {
		p := uint64(8 + i)
		if s.Index != p {
			t.Fatalf("slot %d: index %d", i, s.Index)
		}
		want := uint64(1)
		if p >= 10 && p < 15 {
			want = 2
		}
		if s.Ref.Page.Version != want {
			t.Errorf("page %d: writer %d, want %d", p, s.Ref.Page.Version, want)
		}
	}
}

func TestResolveBounds(t *testing.T) {
	store := NewMemStore()
	m := newModel(8)
	commitModelWrite(t, store, m, 1, 0, 4)
	if _, err := Resolve(ctx, store, 8, 1, 4, 2, 10); err == nil {
		t.Error("resolve past end succeeded")
	}
	slots, err := Resolve(ctx, store, 8, 1, 4, 0, 0)
	if err != nil || slots != nil {
		t.Errorf("empty resolve = %v, %v", slots, err)
	}
}

func TestCommitValidation(t *testing.T) {
	store := NewMemStore()
	w := WriteRecord{Ver: 1, Off: 0, N: 0, PagesAfter: 0}
	if err := Commit(ctx, store, 1, w, nil, nil); err == nil {
		t.Error("zero-length commit succeeded")
	}
	w = WriteRecord{Ver: 1, Off: 0, N: 2, PagesAfter: 2}
	if err := Commit(ctx, store, 1, w, nil, mkRefs(1, 1, 0, 1)); err == nil {
		t.Error("refs/N mismatch accepted")
	}
	if err := Commit(ctx, store, 1, w, nil, mkRefs(1, 1, 0, 3)); err == nil {
		t.Error("refs/N mismatch accepted")
	}
	w = WriteRecord{Ver: 1, Off: 4, N: 2, PagesAfter: 4}
	if err := Commit(ctx, store, 1, w, nil, mkRefs(1, 1, 4, 2)); err == nil {
		t.Error("write beyond PagesAfter accepted")
	}
	w = WriteRecord{Ver: 2, Off: 0, N: 1, PagesAfter: 1}
	hist := []WriteRecord{{Ver: 3, Off: 0, N: 1, PagesAfter: 1}}
	if err := Commit(ctx, store, 1, w, hist, mkRefs(1, 2, 0, 1)); err == nil {
		t.Error("future version in history accepted")
	}

	// A fragment needs a chain behind it, with room left, that ends
	// before the fragment begins.
	w = WriteRecord{Ver: 2, Off: 1, N: 1, PagesAfter: 2, Head: 10}
	hist = []WriteRecord{{Ver: 1, Off: 0, N: 1, PagesAfter: 1}}
	if err := Commit(ctx, store, 1, w, hist, mkRefs(1, 2, 1, 1)); err == nil {
		t.Error("fragment in a slot nothing wrote accepted")
	}
	hist = []WriteRecord{{Ver: 1, Off: 1, N: 1, PagesAfter: 2}}
	for v := uint64(2); v <= MaxSlotFragments; v++ {
		hist = append(hist, WriteRecord{Ver: v, Off: 1, N: 1, PagesAfter: 2, Head: v})
	}
	w = WriteRecord{Ver: MaxSlotFragments + 1, Off: 1, N: 1, PagesAfter: 2, Head: 100}
	if err := Commit(ctx, store, 1, w, hist, mkRefs(1, w.Ver, 1, 1)); err == nil {
		t.Error("fragment behind a full chain accepted")
	}
	w.Ver, w.Head = MaxSlotFragments, MaxSlotFragments-1
	if err := Commit(ctx, store, 1, w, hist[:MaxSlotFragments-1], mkRefs(1, w.Ver, 1, 1)); err == nil {
		t.Error("fragment beginning where the one before it begins accepted")
	}
	w.Head = MaxSlotFragments
	if err := Commit(ctx, store, 1, w, hist[:MaxSlotFragments-1], mkRefs(1, w.Ver, 1, 1)); err != nil {
		t.Errorf("the fragment that fills a chain refused: %v", err)
	}
}

func TestStructuralSharing(t *testing.T) {
	// Appending one page to a large BLOB must create O(log n) nodes,
	// not O(n): that is what makes concurrent appends cheap.
	store := NewMemStore()
	m := newModel(9)
	commitModelWrite(t, store, m, 1, 0, 1024)
	before := store.Len()
	commitModelWrite(t, store, m, 2, 1024, 1)
	created := store.Len() - before
	// New leaf + path to root of span 2048: ~ log2(2048)+1 nodes.
	maxNodes := bits.Len64(2048) + 2
	if created > maxNodes {
		t.Errorf("1-page append created %d nodes, want <= %d", created, maxNodes)
	}
	m.verify(t, store)
}

func TestCommitOrderIndependence(t *testing.T) {
	// Metadata commits read nothing, so they can land out of order:
	// commit v3 before v2 and everything must still resolve.
	store := NewMemStore()
	m := newModel(10)
	w1 := m.apply(1, 0, 4)
	w2 := m.apply(2, 4, 4)
	w3 := m.apply(3, 8, 4)
	if err := Commit(ctx, store, 10, w3, []WriteRecord{w1, w2}, mkRefs(10, 3, 8, 4)); err != nil {
		t.Fatal(err)
	}
	if err := Commit(ctx, store, 10, w1, nil, mkRefs(10, 1, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := Commit(ctx, store, 10, w2, []WriteRecord{w1}, mkRefs(10, 2, 4, 4)); err != nil {
		t.Fatal(err)
	}
	m.verify(t, store)
}

func TestHoleSeal(t *testing.T) {
	// A sealed (failed) version commits hole refs for its interval;
	// successors built on it must read holes there, not data.
	store := NewMemStore()
	m := newModel(11)
	commitModelWrite(t, store, m, 1, 0, 4)

	// Version 2 "failed": sealed with holes.
	w2 := m.apply(2, 4, 4)
	holes := make([]PageRef, 4)
	for i := range holes {
		holes[i] = PageRef{Hole: true}
	}
	if err := Commit(ctx, store, 11, w2, m.history[:1], holes); err != nil {
		t.Fatal(err)
	}
	// Fix the model: sealed pages read as holes.
	for p := 4; p < 8; p++ {
		m.owners[1][p] = 0
	}

	commitModelWrite(t, store, m, 3, 8, 2)
	// v3 sees v1's data, v2's holes, own data.
	for p := 4; p < 8; p++ {
		m.owners[2][p] = 0
	}
	m.verify(t, store)
}

func TestMissingNodeError(t *testing.T) {
	store := NewMemStore()
	m := newModel(12)
	commitModelWrite(t, store, m, 1, 0, 8)
	// Wipe one leaf.
	if err := store.DeleteNodes(ctx, []string{LeafKey(12, 1, 3)}); err != nil {
		t.Fatal(err)
	}
	_, err := Resolve(ctx, store, 12, 1, 8, 0, 8)
	if !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("err = %v, want ErrNodeMissing", err)
	}
	// The key is binary; the error must name the node readably.
	if !strings.Contains(err.Error(), "st/12/1/3/1") {
		t.Errorf("err = %q, want the missing node named as st/12/1/3/1", err)
	}
}

// byteModel is a BLOB at byte granularity, built the way the version
// manager and the blob client build one: write assigns the next version
// with FragmentHead deciding its Head, stores what finishWrite would
// store (the version's own bytes from Head on, a zero-filled gap, the
// neighbouring bytes an overwrite folds in) and commits; read assembles
// bytes back from what Resolve returns.
type byteModel struct {
	blob, ps uint64
	store    *MemStore
	cache    *NodeCache // over store, for the model's lifetime: every read warms it
	history  []WriteRecord
	content  [][]byte                 // content[v-1] is what version v reads as
	sealed   []bool                   // sealed[v-1]: version v committed holes
	pages    map[pagestore.Key][]byte // what the providers hold
	gapped   int                      // writes stored from a partly filled page before their start
}

func newByteModel(blob, ps uint64) *byteModel {
	store := NewMemStore()
	return &byteModel{blob: blob, ps: ps, store: store, cache: NewNodeCache(store), pages: make(map[pagestore.Key][]byte)}
}

// resolve is Resolve through the bare store, through a cold cache over
// it and through the model's own cache, warm with whatever earlier reads
// of this and of older versions left there; the cache is invisible, so
// the three must agree slot for slot.
func (m *byteModel) resolve(t *testing.T, ver, pages, off, n uint64) []Slot {
	t.Helper()
	bare, err := Resolve(ctx, m.store, m.blob, ver, pages, off, n)
	if err != nil {
		t.Fatalf("resolve v%d pages [%d,%d): %v", ver, off, off+n, err)
	}
	for name, store := range map[string]NodeStore{"cold": NewNodeCache(m.store), "warm": m.cache} {
		got, err := Resolve(ctx, store, m.blob, ver, pages, off, n)
		if err != nil || !reflect.DeepEqual(got, bare) {
			t.Fatalf("resolve v%d pages [%d,%d) through a %s cache: %v, %v; the bare store gives %v", ver, off, off+n, name, got, err, bare)
		}
	}
	return bare
}

func (m *byteModel) size() uint64 {
	if len(m.content) == 0 {
		return 0
	}
	return uint64(len(m.content[len(m.content)-1]))
}

// write stores data at byte offset start as the next version. A sealed
// version commits holes in place of pages: zeros from its Head on, which
// for a whole-page version wipes the bytes its boundary pages shared
// with earlier versions. A write beginning in a page past a partly
// filled last page stores from where that page's bytes end, as the
// version manager assigns it.
func (m *byteModel) write(t *testing.T, start uint64, data []byte, sealed bool) WriteRecord {
	t.Helper()
	prevSize := m.size()
	end := start + uint64(len(data))
	sizeAfter := max(end, prevSize)
	stored := start
	if prevSize%m.ps != 0 && start/m.ps > prevSize/m.ps {
		stored = prevSize
		m.gapped++
	}
	w := WriteRecord{
		Ver:        uint64(len(m.history)) + 1,
		Off:        stored / m.ps,
		N:          (end+m.ps-1)/m.ps - stored/m.ps,
		PagesAfter: (sizeAfter + m.ps - 1) / m.ps,
		Head:       FragmentHead(m.history, m.ps, prevSize, stored),
	}
	next := make([]byte, sizeAfter)
	if prevSize > 0 {
		copy(next, m.content[len(m.content)-1])
	}
	lo, hi := w.Off*m.ps+w.Head, min((w.Off+w.N)*m.ps, sizeAfter)
	refs := make([]PageRef, w.N)
	if sealed {
		clear(next[lo:hi])
		for i := range refs {
			refs[i] = PageRef{Hole: true}
		}
	} else {
		copy(next[start:], data)
		for i := range refs {
			key := pagestore.Key{Blob: m.blob, Version: w.Ver, Index: w.Off + uint64(i)}
			pLo, pHi := max(lo, key.Index*m.ps), min(hi, (key.Index+1)*m.ps)
			m.pages[key] = append([]byte(nil), next[pLo:pHi]...)
			refs[i] = PageRef{Page: key, Providers: []string{"prov/provider"}}
		}
	}
	if err := commitCheckingKeys(m.store, m.blob, w, m.history, refs); err != nil {
		t.Fatalf("commit %+v: %v", w, err)
	}
	m.history = append(m.history, w)
	m.content = append(m.content, next)
	m.sealed = append(m.sealed, sealed)
	return w
}

// read returns bytes [off, off+n) of version ver, assembled from the
// resolved pages: each holds its slot's bytes from its Lo up to the next
// page of the slot, or to the slot's end.
func (m *byteModel) read(t *testing.T, ver, off, n uint64) []byte {
	t.Helper()
	size := uint64(len(m.content[ver-1]))
	first, last := off/m.ps, (off+n-1)/m.ps
	slots := m.resolve(t, ver, (size+m.ps-1)/m.ps, first, last-first+1)
	out := bytes.Repeat([]byte{0xEE}, int(n))
	perSlot := 0
	for i, s := range slots {
		if i > 0 && slots[i-1].Index == s.Index {
			perSlot++
		} else {
			perSlot = 1
		}
		if perSlot > MaxSlotFragments {
			t.Fatalf("v%d page %d resolves to more than %d stored pages", ver, s.Index, MaxSlotFragments)
		}
		base, limit := s.Index*m.ps+uint64(s.Ref.Lo), (s.Index+1)*m.ps
		if i+1 < len(slots) && slots[i+1].Index == s.Index {
			limit = s.Index*m.ps + uint64(slots[i+1].Ref.Lo)
		}
		lo, hi := max(off, base), min(off+n, limit)
		if lo >= hi {
			continue
		}
		if s.Ref.Hole {
			clear(out[lo-off : hi-off])
			continue
		}
		page := m.pages[s.Ref.Page]
		if uint64(len(page)) < hi-base {
			t.Fatalf("v%d: page %v holds %d bytes, the read needs %d", ver, s.Ref.Page, len(page), hi-base)
		}
		copy(out[lo-off:hi-off], page[lo-base:hi-base])
	}
	return out
}

// verify reads every version whole and compares it with the model.
func (m *byteModel) verify(t *testing.T) {
	t.Helper()
	for v := uint64(1); v <= uint64(len(m.content)); v++ {
		want := m.content[v-1]
		if got := m.read(t, v, 0, uint64(len(want))); !bytes.Equal(got, want) {
			t.Fatalf("version %d (%+v) reads wrong: first difference at byte %d", v, m.history[v-1], firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// randomWrite applies one random operation: an append, a write inside
// existing bytes (beginning and ending mid-page more often than not), a
// write past the end (inside the last page or beyond it), any of them
// sealed one time in eight.
func (m *byteModel) randomWrite(t *testing.T, rng *rand.Rand) {
	t.Helper()
	size := m.size()
	data := make([]byte, 1+rng.Intn(int(3*m.ps)))
	rng.Read(data)
	start := size
	switch rng.Intn(4) {
	case 0: // inside existing bytes
		if size > 0 {
			start = uint64(rng.Intn(int(size)))
		}
	case 1: // past the end
		start += uint64(1 + rng.Intn(int(3*m.ps)))
	case 2: // a short append, the kind that grows a chain
		data = data[:min(len(data), 1+rng.Intn(int(m.ps/4)))]
	}
	m.write(t, start, data, rng.Intn(8) == 0)
}

func TestRandomWritesAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newByteModel(uint64(100+seed), 32)
			for v := 1; v <= 120; v++ {
				m.randomWrite(t, rng)
			}
			m.verify(t)
			var frags int
			for _, w := range m.history {
				if w.Head != 0 {
					frags++
				}
			}
			t.Logf("%d versions, %d of them fragments, %d past a partly filled page, %d bytes in %d stored pages", len(m.history), frags, m.gapped, m.size(), len(m.pages))
			if frags == 0 || frags == len(m.history) {
				t.Errorf("%d fragments in %d versions: the mix must exercise both kinds of leaf", frags, len(m.history))
			}
			if m.gapped == 0 {
				t.Error("no write began past a partly filled last page")
			}
		})
	}
}

// TestWrittenMatchesResolve: over the same random histories, the pages a
// version stored, read by address, are the pages of its own that
// resolving its snapshot finds — through the bare store, a cold cache and
// the model's warm one — and a sealed version, or a page the version did
// not write, is refused.
func TestWrittenMatchesResolve(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newByteModel(uint64(100+seed), 32)
			for v := 1; v <= 120; v++ {
				m.randomWrite(t, rng)
			}
			m.verify(t) // warms m.cache with every version's reads
			for i, w := range m.history {
				stores := map[string]NodeStore{"bare": m.store, "cold": NewNodeCache(m.store), "warm": m.cache}
				if m.sealed[i] {
					for name, store := range stores {
						if got, err := Written(ctx, store, m.blob, w.Ver, w.Off, w.N); err == nil {
							t.Fatalf("sealed v%d through the %s store: Written = %v, want a refusal", w.Ver, name, got)
						}
					}
					continue
				}
				var want []Slot
				for _, s := range m.resolve(t, w.Ver, w.PagesAfter, w.Off, w.N) {
					if s.Ref.Page.Version == w.Ver {
						want = append(want, s)
					}
				}
				if uint64(len(want)) != w.N {
					t.Fatalf("v%d %+v: resolving finds %d of its pages, want %d", w.Ver, w, len(want), w.N)
				}
				for name, store := range stores {
					got, err := Written(ctx, store, m.blob, w.Ver, w.Off, w.N)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("v%d %+v through the %s store: Written = %v, %v; Resolve finds %v", w.Ver, w, name, got, err, want)
					}
					for j := range want {
						got, err := Written(ctx, store, m.blob, w.Ver, want[j].Index, 1)
						if err != nil || !reflect.DeepEqual(got, want[j:j+1]) {
							t.Fatalf("v%d page %d through the %s store: Written = %v, %v; want %v", w.Ver, want[j].Index, name, got, err, want[j])
						}
					}
					for _, p := range []uint64{w.Off - 1, w.Off + w.N} {
						if p+1 == 0 { // w.Off-1 of a write from page 0
							continue
						}
						if got, err := Written(ctx, store, m.blob, w.Ver, p, 1); err == nil {
							t.Fatalf("v%d %+v through the %s store: Written of page %d = %v, want a refusal", w.Ver, w, name, p, got)
						}
					}
				}
			}
		})
	}
}

// TestFragmentChainBound: appends far smaller than a page grow a slot's
// chain to MaxSlotFragments stored pages and no further — the append
// that finds it full stores the slot prefix again, which is what
// compacts a slot — and every version reads exactly across compactions.
func TestFragmentChainBound(t *testing.T) {
	m := newByteModel(77, 256)
	rng := rand.New(rand.NewSource(5))
	var compactions int
	for v := 1; v <= 150; v++ {
		data := make([]byte, 3)
		rng.Read(data)
		w := m.write(t, m.size(), data, false)
		var buf [MaxSlotFragments]Frag
		chain := Chain(m.history, w.Off, buf[:0])
		if len(chain) == 0 || len(chain) > MaxSlotFragments {
			t.Fatalf("after version %d the slot's chain has %d entries", v, len(chain))
		}
		if w.Head == 0 && (m.size()-3)%m.ps != 0 {
			compactions++
			if len(chain) != 1 {
				t.Fatalf("version %d rewrote the slot prefix but the chain still has %d entries", v, len(chain))
			}
		}
	}
	m.verify(t) // read asserts no slot resolves to more than MaxSlotFragments pages
	// Every 32nd store into a slot is a rewrite: versions 33 and 65 in
	// slot 0, which version 86 fills and overflows, 118 and 150 in slot 1.
	if compactions != 4 {
		t.Errorf("%d compactions, want 4", compactions)
	}
}

// TestSealedFragmentKeepsNeighbours: a sealed version that was to store
// a fragment reads as zeros from its Head on and leaves the bytes
// earlier versions stored in the slot alone.
func TestSealedFragmentKeepsNeighbours(t *testing.T) {
	m := newByteModel(78, 64)
	m.write(t, 0, []byte("first version, thirty-one bytes"), false)
	w := m.write(t, m.size(), bytes.Repeat([]byte{'x'}, 80), true) // sealed, over two slots
	if w.Head != 31 {
		t.Fatalf("sealed append got Head %d, want 31", w.Head)
	}
	m.write(t, m.size(), []byte("third"), false)
	m.verify(t)
	if got := m.read(t, 3, 0, 31); string(got) != "first version, thirty-one bytes" {
		t.Fatalf("version 1's bytes read %q at version 3", got)
	}
}

func TestRandomAppendsManyVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	store := NewMemStore()
	m := newModel(200)
	off := uint64(0)
	for v := uint64(1); v <= 150; v++ {
		n := uint64(1 + rng.Intn(4))
		commitModelWrite(t, store, m, v, off, n)
		off += n
	}
	// Spot check: latest version full read plus a few old versions.
	m.verify(t, store)
}

func BenchmarkCommitAppend16(b *testing.B) {
	store := NewMemStore()
	m := newModel(300)
	off := uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := uint64(i + 1)
		w := m.apply(v, off, 16)
		if err := Commit(ctx, store, 300, w, m.history[:len(m.history)-1], mkRefs(300, v, off, 16)); err != nil {
			b.Fatal(err)
		}
		off += 16
	}
}

// appendTree commits `versions` appends of 16 pages each to store as
// BLOB blob.
func appendTree(tb testing.TB, store *MemStore, blob, versions uint64) {
	tb.Helper()
	m := newModel(blob)
	for v := uint64(1); v <= versions; v++ {
		w := m.apply(v, (v-1)*16, 16)
		if err := Commit(ctx, store, blob, w, m.history[:len(m.history)-1], mkRefs(blob, v, w.Off, 16)); err != nil {
			tb.Fatal(err)
		}
	}
}

// appendedTree is appendTree into a store of its own.
func appendedTree(tb testing.TB, blob, versions uint64) *MemStore {
	tb.Helper()
	store := NewMemStore()
	appendTree(tb, store, blob, versions)
	return store
}

func BenchmarkResolve16(b *testing.B) {
	store := appendedTree(b, 301, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(i%63) * 16
		if _, err := Resolve(ctx, store, 301, 64, 64*16, start, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVersionNodesMatchesCommit: VersionNodes must enumerate exactly
// the key set Commit stores, for appends, overwrites, and grid-growth
// wrappers alike — the garbage collector relies on this equivalence to
// delete a dead version's metadata without reading it.
func TestVersionNodesMatchesCommit(t *testing.T) {
	store := NewMemStore()
	recs := []WriteRecord{
		{Ver: 1, Off: 0, N: 2, PagesAfter: 2},
		{Ver: 2, Off: 1, N: 2, PagesAfter: 3},       // overwrite + grow
		{Ver: 3, Off: 6, N: 2, PagesAfter: 8},       // jump past the old root (wrappers)
		{Ver: 4, Off: 0, N: 1, PagesAfter: 8},       // overwrite inside the grown grid
		{Ver: 300, Off: 200, N: 3, PagesAfter: 203}, // multi-byte uvarints in every key field
	}
	for i, w := range recs {
		refs := make([]PageRef, w.N)
		for j := range refs {
			refs[j] = PageRef{Page: pagestore.Key{Blob: 9, Version: w.Ver, Index: w.Off + uint64(j)}, Providers: []string{"p"}}
		}
		if err := commitCheckingKeys(store, 1<<40+9, w, recs[:i], refs); err != nil {
			t.Fatal(err)
		}
	}
}

// commitCheckingKeys commits w and fails unless the keys the commit
// added to store are exactly VersionNodes' ranges rendered by NodeKey,
// each parsing back to its range.
func commitCheckingKeys(store *MemStore, blob uint64, w WriteRecord, history []WriteRecord, refs []PageRef) error {
	before := keySet(store)
	if err := Commit(ctx, store, blob, w, history, refs); err != nil {
		return err
	}
	committed := keySet(store)
	for k := range before {
		delete(committed, k)
	}
	nodes := VersionNodes(w, history)
	if len(nodes) != len(committed) {
		return fmt.Errorf("v%d: VersionNodes lists %d nodes, Commit stored %d", w.Ver, len(nodes), len(committed))
	}
	for _, nr := range nodes {
		key := NodeKey(blob, w.Ver, nr.Off, nr.Span)
		if !committed[key] {
			return fmt.Errorf("v%d: VersionNodes lists %s, which Commit never stored", w.Ver, FormatKey(key))
		}
		delete(committed, key) // a range listed twice must not pass
		if b, v, off, span, ok := ParseKey(key); !ok || b != blob || v != w.Ver || off != nr.Off || span != nr.Span {
			return fmt.Errorf("v%d: key of (%d,%d) parses to %d/%d/%d/%d ok=%v", w.Ver, nr.Off, nr.Span, b, v, off, span, ok)
		}
	}
	return nil
}

func keySet(s *MemStore) map[string]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]bool, len(s.m))
	for k := range s.m {
		out[k] = true
	}
	return out
}

// TestMemStoreDeleteNodes: the deletion capability behind metadata GC.
func TestMemStoreDeleteNodes(t *testing.T) {
	s := NewMemStore()
	if err := s.PutNodes(ctx, []string{"a", "b", "c"}, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteNodes(ctx, []string{"a", "c", "missing"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len after delete = %d, want 1", s.Len())
	}
	vals, err := s.GetNodes(ctx, []string{"b"})
	if err != nil || vals[0] == nil {
		t.Fatalf("survivor missing: %v %v", vals, err)
	}
}

// TestCommitAllocationBudget: a commit allocates per version — the node
// list, the key slab, the value slab and the two slices handed to the
// store — never per node: 13 nodes deep into a 4096-page BLOB it costs
// what it costs at the root.
func TestCommitAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	store := NewMemStore()
	history := make([]WriteRecord, 0, 4096)
	pages := uint64(0)
	commit := func(n uint64, refs []PageRef) {
		w := WriteRecord{Ver: uint64(len(history)) + 1, Off: pages, N: n, PagesAfter: pages + n}
		if err := Commit(ctx, store, 400, w, history, refs); err != nil {
			t.Fatal(err)
		}
		history = append(history, w)
		pages += n
	}
	for v := 0; v < 256; v++ {
		commit(16, mkRefs(400, uint64(v)+1, pages, 16))
	}
	refs := mkRefs(400, 0, 0, 1)
	allocs := testing.AllocsPerRun(500, func() { commit(1, refs) })
	t.Logf("1-page commit onto %d pages: %.0f allocs", pages, allocs)
	if allocs > 8 {
		t.Errorf("a 1-page commit onto a 4096-page history allocates %.0f objects, budget 8", allocs)
	}
}
