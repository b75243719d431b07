package segtree

import (
	"reflect"
	"strings"
	"testing"

	"blobseer/internal/pagestore"
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
	f.Add(appendLeaf(nil, PageRef{Page: pagestore.Key{Blob: 7, Version: 3, Index: 9}, Providers: []string{"node-000/provider", "node-001/provider"}}))
	f.Add(appendLeaf(nil, PageRef{Hole: true}))
	// The malformed seeds are in testdata/fuzz.
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := append([]byte(nil), data...)
		n, err := decodeNode(raw)
		if err != nil {
			return
		}
		var enc []byte
		if n.leaf {
			enc = appendLeaf(nil, n.ref)
			if len(enc) != leafLen(n.ref) {
				t.Fatalf("leafLen = %d for a leaf of %d bytes", leafLen(n.ref), len(enc))
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
