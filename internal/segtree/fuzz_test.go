package segtree

import (
	"reflect"
	"strings"
	"testing"

	"blobseer/internal/pagestore"
	"blobseer/internal/wire"
)

// FuzzNodeKey: the key codec must round-trip, be injective, and be
// prefix-free — a store keyed by these strings (and anything that ever
// scans them by prefix) must never confuse two nodes — and arbitrary
// bytes either are no key or are exactly the key of what they parse to.
func FuzzNodeKey(f *testing.F) {
	// More seeds, the malformed ones, are in testdata/fuzz.
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), "")
	f.Add(uint64(7), uint64(300), uint64(4095), uint64(1), uint64(7), uint64(300), uint64(4094), uint64(2), NodeKey(7, 300, 4095, 1))
	f.Fuzz(func(t *testing.T, b1, v1, o1, s1, b2, v2, o2, s2 uint64, stray string) {
		FormatKey(stray) // must not panic
		if b, v, o, s, ok := ParseKey(stray); ok && NodeKey(b, v, o, s) != stray {
			t.Fatalf("ParseKey accepted %q, which is not NodeKey(%d,%d,%d,%d)", stray, b, v, o, s)
		}
		k1, k2 := NodeKey(b1, v1, o1, s1), NodeKey(b2, v2, o2, s2)
		if b, v, o, s, ok := ParseKey(k1); !ok || b != b1 || v != v1 || o != o1 || s != s1 {
			t.Fatalf("ParseKey(NodeKey(%d,%d,%d,%d)) = %d,%d,%d,%d ok=%v", b1, v1, o1, s1, b, v, o, s, ok)
		}
		if len(k1) != keyLen(b1, v1, o1, s1) {
			t.Fatalf("keyLen = %d for a key of %d bytes", keyLen(b1, v1, o1, s1), len(k1))
		}
		if text := FormatKey(k1); len(k1) > len(text) {
			t.Fatalf("binary key (%d bytes) longer than its decimal form %s", len(k1), text)
		}
		same := b1 == b2 && v1 == v2 && o1 == o2 && s1 == s2
		if (k1 == k2) != same {
			t.Fatalf("NodeKey not injective: (%d,%d,%d,%d) and (%d,%d,%d,%d) give %q and %q", b1, v1, o1, s1, b2, v2, o2, s2, k1, k2)
		}
		if !same && (strings.HasPrefix(k1, k2) || strings.HasPrefix(k2, k1)) {
			t.Fatalf("%s is a prefix of %s or the reverse", FormatKey(k1), FormatKey(k2))
		}
	})
}

// FuzzDecodeNode: node values come back from the metadata providers.
// Whatever the bytes, decoding must not panic, must not alias them
// (a response frame outlives nothing it is not pinned by), and what
// decodes must survive a re-encode.
func FuzzDecodeNode(f *testing.F) {
	f.Add(appendInner(nil, true, 3, false, 0))
	f.Add(appendLeaf(nil, PageRef{Page: pagestore.Key{Blob: 7, Version: 3, Index: 9}, Providers: []string{"node-000/provider", "node-001/provider"}}, nil))
	f.Add(appendLeaf(nil, PageRef{Hole: true}, nil))
	f.Add(appendLeaf(nil, PageRef{Page: pagestore.Key{Blob: 7, Version: 9, Index: 2}, Providers: []string{"node-002/provider"}, Lo: 3000},
		[]Frag{{Ver: 8, Lo: 2000}, {Ver: 5, Lo: 1000}, {Ver: 4, Lo: 0}}))
	f.Add(appendLeaf(nil, PageRef{Hole: true, Lo: 100}, []Frag{{Ver: 1, Lo: 0}}))
	// The malformed seeds are in testdata/fuzz.
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := append([]byte(nil), data...)
		n, err := decodeNode(raw)
		if err != nil {
			return
		}
		var enc []byte
		if n.leaf {
			enc = appendLeaf(nil, n.ref, n.chain)
			if len(enc) != leafLen(n.ref, n.chain) {
				t.Fatalf("leafLen = %d for a leaf of %d bytes", leafLen(n.ref, n.chain), len(enc))
			}
		} else {
			enc = appendInner(nil, n.leftPresent, n.leftVer, n.rightPresent, n.rightVer)
		}
		for i := range raw {
			raw[i] = 0xDB
		}
		again, err := decodeNode(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded node: %v", err)
		}
		// Compared after raw was overwritten: a Providers entry that
		// aliased raw is garbage by now.
		if !reflect.DeepEqual(n, again) {
			t.Fatalf("decode(encode(x)) = %+v, want %+v", again, n)
		}
	})
}

// TestFragmentLeafRoundTrip: what Commit stores for a version that
// begins mid-slot decodes to the fragment the record describes and the
// chain history gives its slot, and a whole page of the same version to
// a plain leaf.
func TestFragmentLeafRoundTrip(t *testing.T) {
	store := NewMemStore()
	history := []WriteRecord{
		{Ver: 1, Off: 0, N: 2, PagesAfter: 2},
		{Ver: 2, Off: 1, N: 1, PagesAfter: 2, Head: 100},
		{Ver: 3, Off: 0, N: 1, PagesAfter: 2}, // an overwrite elsewhere
		{Ver: 4, Off: 1, N: 1, PagesAfter: 2, Head: 300},
	}
	w := WriteRecord{Ver: 5, Off: 1, N: 2, PagesAfter: 3, Head: 700}
	if err := Commit(ctx, store, 9, w, history, mkRefs(9, 5, 1, 2)); err != nil {
		t.Fatal(err)
	}
	raws, err := store.GetNodes(ctx, []string{LeafKey(9, 5, 1), LeafKey(9, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	frag, err := decodeNode(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	want := node{leaf: true, ref: mkRefs(9, 5, 1, 1)[0], chain: []Frag{{Ver: 4, Lo: 300}, {Ver: 2, Lo: 100}, {Ver: 1, Lo: 0}}}
	want.ref.Lo = 700
	if !reflect.DeepEqual(frag, want) {
		t.Errorf("fragment leaf decodes to %+v, want %+v", frag, want)
	}
	if ref, err := DecodeLeaf(raws[0]); err != nil || !reflect.DeepEqual(ref, want.ref) {
		t.Errorf("DecodeLeaf = %+v, %v", ref, err)
	}
	whole, err := decodeNode(raws[1])
	if err != nil || whole.chain != nil || whole.ref.Lo != 0 || raws[1][0] != nodeLeaf {
		t.Errorf("the version's second page decodes to %+v (%v), want a plain leaf", whole, err)
	}
}

// TestDecodeNodeRejectsBadChains: a fragment leaf at offset 0, with no
// chain or one too long, or whose chain is not strictly descending down
// to offset 0, is corrupt.
func TestDecodeNodeRejectsBadChains(t *testing.T) {
	// frag encodes a hole fragment leaf by hand, valid or not.
	frag := func(lo uint64, chain ...Frag) []byte {
		b := appendLeaf(nil, PageRef{Hole: true}, nil)
		b[0] = nodeFrag
		b = wire.AppendUvarint(b, lo)
		b = wire.AppendUvarint(b, uint64(len(chain)))
		for _, f := range chain {
			b = wire.AppendUvarint(wire.AppendUvarint(b, f.Ver), f.Lo)
		}
		return b
	}
	long := make([]Frag, MaxSlotFragments)
	for i := range long {
		long[i] = Frag{Ver: uint64(len(long) - i), Lo: uint64(len(long) - 1 - i)}
	}
	whole := frag(50, Frag{Ver: 2, Lo: 10}, Frag{Ver: 1, Lo: 0})
	for name, raw := range map[string][]byte{
		"offset 0":            frag(0, Frag{Ver: 1, Lo: 0}),
		"offset beyond Lo":    frag(1<<32, Frag{Ver: 1, Lo: 0}),
		"empty chain":         frag(50),
		"overlong chain":      frag(1000, long...),
		"no prefix":           frag(50, Frag{Ver: 2, Lo: 10}),
		"prefix not last":     frag(50, Frag{Ver: 2, Lo: 0}, Frag{Ver: 1, Lo: 0}),
		"offsets ascend":      frag(50, Frag{Ver: 3, Lo: 10}, Frag{Ver: 2, Lo: 20}, Frag{Ver: 1, Lo: 0}),
		"first past the leaf": frag(50, Frag{Ver: 2, Lo: 50}, Frag{Ver: 1, Lo: 0}),
		"versions ascend":     frag(50, Frag{Ver: 2, Lo: 10}, Frag{Ver: 2, Lo: 0}),
		"truncated chain":     whole[:len(whole)-1],
	} {
		if n, err := decodeNode(raw); err == nil {
			t.Errorf("%s: decoded to %+v", name, n)
		}
	}
	if _, err := decodeNode(frag(1000, long[1:]...)); err != nil {
		t.Errorf("a chain of %d: %v", len(long)-1, err)
	}
}
