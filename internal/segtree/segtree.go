// Package segtree implements BlobSeer's versioned metadata structure: a
// copy-on-write segment tree per BLOB that maps page ranges to page
// descriptors, with full structural sharing between versions (§3.1.1 of
// the paper; the algorithm follows Nicolae et al. [10]).
//
// A version v's tree is a binary tree over the page index space
// [0, rootSpan(v)) where rootSpan(v) is the smallest power of two
// covering the BLOB's page count at v. Leaves map single pages to
// replica locations; inner nodes reference children by *version number*
// only (the child's range is implied by the parent's), so a subtree
// untouched by a write is shared by pointing at the version that last
// wrote into it.
//
// Key property used for concurrency (and the reason appends scale in
// Figures 3-5): committing version v's metadata requires NO reads of
// other versions' metadata. The version manager hands the writer the
// write-interval history of all assigned versions below v, and every
// child pointer is computable from that history alone:
//
//	node (range R, version w) exists  ⇔  R ∩ write(w) ≠ ∅
//	                                     and span(R) ≤ rootSpan(w)
//
// (plus wrapper nodes a version creates when the grid grows past an old
// root, handled below). Metadata commits by concurrent appenders
// therefore proceed fully in parallel — one batched DHT write each —
// and only version *publication* is ordered.
//
// # Node keys
//
// The store key of the node covering [off, off+span) in version ver's
// tree of a BLOB is the byte keyTag followed by the uvarints of blob,
// ver, off and span. A uvarint says where it ends, so no key is a
// prefix of another and ParseKey inverts NodeKey exactly; a uvarint is
// never longer than the decimal digits of its value, so a key is
// shorter than the "st/<blob>/<ver>/<off>/<span>" it replaced — which
// is still what FormatKey prints, because a key is binary and must not
// reach a log or an error through %s. Commit renders all keys of a
// version into one string and all encoded values into one byte slice
// and hands the store substrings of them: a commit allocates per
// version, not per node.
//
// # Fragments
//
// A page slot is stored as a short chain of immutable pages. The first
// holds a prefix of the slot; each further one, a fragment, begins
// exactly where the one before it ends. Which of the two a version
// stores in its first page is decided at assignment and recorded as
// WriteRecord.Head, the in-slot offset of the first byte it stores
// there (FragmentHead): a write that begins mid-slot at or past
// everything the slot holds — every unaligned append, and a write past
// the end of a partly filled last page, whose writer zero-fills the gap
// (the version manager starts the record of one that begins in a later
// page at that last page, so the page's tail is stored) — gets the
// offset at which the slot's bytes end; an aligned write, a write
// landing inside existing bytes and the write that finds
// MaxSlotFragments pages in the slot already get 0, "whole pages", and
// store a slot prefix, folding in what they must keep of the previous
// version (the last of the three is what compacts a slot). So an
// unaligned append stores its own bytes and nothing else, and needs
// nothing of the version before it: not its bytes, not its metadata,
// not its publication.
//
// The rule reads write records only, and so does everyone after it.
// Chain walks history backwards over the records touching a slot until
// the newest one that stored a prefix, and is the one place that knows
// how: the version manager bounds a chain with it, Commit writes it
// into the fragment's leaf (a leaf's fields, then Head and the
// (version, offset) of each page behind it, MaxSlotFragments-1 at most)
// without reading another version's metadata, and the garbage collector
// learns from it which pages a slot prefix shadows. A whole-page leaf is
// encoded as it always was.
//
// Resolve returns one Slot per stored page, ordered by index and then by
// PageRef.Lo, fetching the leaves a fragment leaf names as one more
// batched level. It returns no lengths and needs none: the pages of a
// slot lie end to end, so each holds the bytes from its Lo up to the
// next one's, and the last up to the end of the slot (or of the
// version). A sealed version that was to store a fragment is a hole
// over exactly that extent; the pages behind it stay readable.
//
// Written reads the other way round: not what version v reads as, but
// what v itself stored. Every node on the path to a page v wrote is v's,
// so v's leaves are named by (v, page) and come back as one batched
// level, with no descent and no chain: a fragment's chain holds earlier
// versions' bytes, which a reader of v's own write never needs. A reader
// told "v wrote bytes [off, off+len)", a shuffle fetch, reads by it.
//
// What is left: every MaxSlotFragments-th store into a slot rewrites the
// slot's prefix, so records tiny next to the page still cost more than
// their bytes, where every unaligned append used to.
//
// # Caching
//
// Versions share subtrees, so a reader of version v+1 needs, of the
// nodes a reader of v already fetched, all but the few v+1 wrote. A
// NodeCache in front of the store keeps them: decoded nodes by identity
// (blob, ver, off, span), looked up a level at a time by getLevel, the
// one place Resolve and Written read the store, which sends it only the
// keys the cache lacks. A fresh version of a BLOB the process has read costs its new
// root plus whatever subtree nobody has touched yet.
//
// What may be cached, and why. A key is written once, by the commit of
// the version it names (or by the seal that stands in for a failed
// commit, before the version publishes), and Resolve through a cache is
// for published versions: every node reached from a published root was
// written by a version at or below it, all of them published and final.
// Written through a cache is for completed versions, published or not:
// it reads only the version's own leaves, and the version manager seals
// only a pending version, so once a completion is acknowledged nothing
// writes those keys again, whatever becomes of the versions before it.
// So a cached node equals the stored one for as long as the stored one
// exists, and decoded it owns its memory (decodeNode copies the provider
// list and makes the chain), so no store buffer is retained. Nothing
// negative is cached: a node that is missing or does not decode is an
// error of that read and is asked for again by the next, and a level
// joins the cache only when all of it arrived. Nothing is filled on
// PutNodes: a writer reads no tree, and pays nothing. Two descents that
// miss the same node both fetch it; the second insert changes nothing.
//
// Who forgets what. Only garbage collection ends a node's life, and what
// it retires is unreachable from every version still readable, so a
// stale entry can serve nobody a wrong page: at worst a collected
// version resolves where it would have failed, and fails a step later on
// a reclaimed page or reads the bytes it always had. Forgetting is for
// memory and for failing fast, by the rules the blob client's other
// caches follow: DeleteNodes forgets the keys it deletes (the collector
// deletes through its client's cache), ForgetVersion the nodes one
// version wrote (the client's PurgeVersion: a read told the version is
// collected, and each version a collector pass retires), ForgetBlob a
// BLOB's (PurgeBlob: deletion). The cache holds at most nodeCacheCap
// nodes and is dropped whole when it gets there.
package segtree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"blobseer/internal/pagestore"
	"blobseer/internal/wire"
)

// PageRef describes one stored page: where its replicas live, or that
// the page is a hole (never written; reads as zeros).
type PageRef struct {
	Page      pagestore.Key
	Providers []string // provider endpoint addresses, primary first
	Hole      bool
	// Lo is the in-slot offset of the page's first byte: 0 for a whole
	// page, the writing version's Head for a fragment. Resolve sets it;
	// Commit takes it from the record, not from the refs it is handed.
	Lo uint32
}

// WriteRecord is one version's write interval, in page units.
// PagesAfter is the BLOB's total page count once this version is
// applied; it determines the version's root span.
type WriteRecord struct {
	Ver        uint64
	Off        uint64 // first page written
	N          uint64 // number of pages written (>= 1)
	PagesAfter uint64
	// Head is the in-slot offset of the first byte the version stores in
	// its first page. Zero means whole pages; see "Fragments" in the
	// package comment and FragmentHead for the rule that sets it.
	Head uint64
}

// Slot is one resolved stored page of a read: the index of the page
// slot it belongs to and its descriptor. A slot stored as fragments
// resolves to one Slot per fragment.
type Slot struct {
	Index uint64
	Ref   PageRef
}

// MaxSlotFragments bounds a slot's chain: no slot is ever stored as more
// pages than this, so a reader fetches any slot in one parallel window
// (it equals the blob client's per-operation transfer bound).
const MaxSlotFragments = 32

// Frag names one stored page of a slot's chain: the version that stored
// it and the in-slot offset of its first byte.
type Frag struct {
	Ver uint64
	Lo  uint64
}

// Chain lists the stored pages that make up page slot `slot` once every
// record of history is applied, newest first: it walks history backwards
// over the records touching the slot and stops at the newest one that
// stored a slot prefix (Lo 0). The result is appended to buf[:0]. It is
// nil when nothing in history wrote the slot or no prefix turns up within
// MaxSlotFragments entries — a history the Head rule cannot produce.
func Chain(history []WriteRecord, slot uint64, buf []Frag) []Frag {
	buf = buf[:0]
	for i := len(history) - 1; i >= 0 && len(buf) < MaxSlotFragments; i-- {
		rec := &history[i]
		if !intersects(rec.Off, rec.N, slot, 1) {
			continue
		}
		var lo uint64
		if slot == rec.Off {
			lo = rec.Head
		}
		buf = append(buf, Frag{Ver: rec.Ver, Lo: lo})
		if lo == 0 {
			return buf
		}
	}
	return nil
}

// FragmentHead is the rule that sets WriteRecord.Head ("Fragments" in
// the package comment), for a write that starts at byte `start` of a
// BLOB of pageSize-byte pages whose assigned versions (history) have
// made it prevSize bytes long. It reads nothing but history, so a
// journal replay decides what the live manager decided.
func FragmentHead(history []WriteRecord, pageSize, prevSize, start uint64) uint64 {
	slot := start / pageSize
	slotStart := slot * pageSize
	if prevSize <= slotStart || start < prevSize {
		return 0 // nothing in the slot yet, or landing inside existing bytes
	}
	var buf [MaxSlotFragments]Frag
	if c := Chain(history, slot, buf[:0]); c == nil || len(c) >= MaxSlotFragments {
		return 0
	}
	return prevSize - slotStart
}

// NodeStore persists encoded tree nodes. The blob package adapts the
// metadata DHT to this interface; tests use an in-memory map.
type NodeStore interface {
	// PutNodes stores keys[i] -> values[i]. Entries are immutable.
	PutNodes(ctx context.Context, keys []string, values [][]byte) error
	// GetNodes fetches many nodes; missing entries are nil.
	GetNodes(ctx context.Context, keys []string) ([][]byte, error)
}

// ErrNodeMissing reports metadata lost by the node store.
var ErrNodeMissing = errors.New("segtree: tree node missing")

// RootSpan returns the page span of the root for a BLOB of n pages.
func RootSpan(n uint64) uint64 {
	if n <= 1 {
		return n
	}
	return 1 << uint(bits.Len64(n-1))
}

// keyTag opens every node key; see "Node keys" in the package comment.
const keyTag = 's'

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// keyLen is the size of the key NodeKey renders.
func keyLen(blob, ver, off, span uint64) int {
	return 1 + uvarintLen(blob) + uvarintLen(ver) + uvarintLen(off) + uvarintLen(span)
}

func appendKey(b []byte, blob, ver, off, span uint64) []byte {
	b = append(b, keyTag)
	b = wire.AppendUvarint(b, blob)
	b = wire.AppendUvarint(b, ver)
	b = wire.AppendUvarint(b, off)
	return wire.AppendUvarint(b, span)
}

// maxKeyLen is the size of the longest key.
const maxKeyLen = 1 + 4*binary.MaxVarintLen64

// NodeKey renders the store key of the node covering [off, off+span)
// in version ver's tree.
func NodeKey(blob, ver, off, span uint64) string {
	var buf [maxKeyLen]byte
	return string(appendKey(buf[:0], blob, ver, off, span))
}

// keySlab renders keys back to back into one string; a key it returned
// stays valid when a later one makes the slab grow (growing copies, it
// never rewrites what was rendered).
type keySlab struct{ strings.Builder }

func (s *keySlab) add(blob, ver, off, span uint64) string {
	var buf [maxKeyLen]byte
	k0 := s.Len()
	s.Write(appendKey(buf[:0], blob, ver, off, span))
	return s.String()[k0:]
}

// LeafKey renders the store key of the leaf holding page `page` in the
// tree of version ver — the node whose value carries the page's
// provider locations. The garbage collector reads these to learn which
// providers hold a reclaimable page.
func LeafKey(blob, ver, page uint64) string {
	return NodeKey(blob, ver, page, 1)
}

// ParseKey inverts NodeKey; ok is false for anything NodeKey did not
// render.
func ParseKey(key string) (blob, ver, off, span uint64, ok bool) {
	if len(key) == 0 || key[0] != keyTag {
		return 0, 0, 0, 0, false
	}
	r := wire.NewReader([]byte(key[1:]))
	blob, ver, off, span = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	// A uvarint padded with zero groups decodes too, but is longer than
	// the one NodeKey renders.
	ok = r.Err() == nil && r.Len() == 0 && keyLen(blob, ver, off, span) == len(key)
	return blob, ver, off, span, ok
}

// FormatKey renders a node key for people: logs and errors print keys
// through it, never through %s.
func FormatKey(key string) string {
	blob, ver, off, span, ok := ParseKey(key)
	if !ok {
		return strconv.Quote(key)
	}
	return fmt.Sprintf("st/%d/%d/%d/%d", blob, ver, off, span)
}

// Node encodings.
const (
	nodeInner = 0
	nodeLeaf  = 1
	nodeFrag  = 2 // a leaf's fields, then its Lo and the chain behind it
)

func appendInner(b []byte, leftPresent bool, leftVer uint64, rightPresent bool, rightVer uint64) []byte {
	b = append(b, nodeInner)
	b = wire.AppendBool(b, leftPresent)
	b = wire.AppendUvarint(b, leftVer)
	b = wire.AppendBool(b, rightPresent)
	return wire.AppendUvarint(b, rightVer)
}

// appendLeaf encodes the leaf of a whole page (chain empty, ref.Lo
// ignored) or of a fragment beginning at ref.Lo with chain behind it.
func appendLeaf(b []byte, ref PageRef, chain []Frag) []byte {
	tag := len(b)
	b = append(b, nodeLeaf)
	b = wire.AppendBool(b, ref.Hole)
	b = wire.AppendUvarint(b, ref.Page.Blob)
	b = wire.AppendUvarint(b, ref.Page.Version)
	b = wire.AppendUvarint(b, ref.Page.Index)
	b = wire.AppendStringSlice(b, ref.Providers)
	if len(chain) > 0 {
		b[tag] = nodeFrag
		b = wire.AppendUvarint(b, uint64(ref.Lo))
		b = wire.AppendUvarint(b, uint64(len(chain)))
		for _, f := range chain {
			b = wire.AppendUvarint(wire.AppendUvarint(b, f.Ver), f.Lo)
		}
	}
	return b
}

// leafLen is the size of what appendLeaf appends.
func leafLen(ref PageRef, chain []Frag) int {
	n := 2 + uvarintLen(ref.Page.Blob) + uvarintLen(ref.Page.Version) + uvarintLen(ref.Page.Index) +
		uvarintLen(uint64(len(ref.Providers)))
	for _, p := range ref.Providers {
		n += uvarintLen(uint64(len(p))) + len(p)
	}
	if len(chain) > 0 {
		n += uvarintLen(uint64(ref.Lo)) + uvarintLen(uint64(len(chain)))
		for _, f := range chain {
			n += uvarintLen(f.Ver) + uvarintLen(f.Lo)
		}
	}
	return n
}

// node is one decoded tree node: a leaf's page descriptor (and, for a
// fragment, the chain behind it), or an inner node's two child pointers.
type node struct {
	leaf                      bool
	leftPresent, rightPresent bool
	leftVer, rightVer         uint64

	ref   PageRef
	chain []Frag
}

func decodeNode(raw []byte) (node, error) {
	var n node
	if len(raw) == 0 {
		return n, errors.New("segtree: empty node encoding")
	}
	r := wire.NewReader(raw[1:])
	switch raw[0] {
	case nodeInner:
		n.leftPresent = r.Bool()
		n.leftVer = r.Uvarint()
		n.rightPresent = r.Bool()
		n.rightVer = r.Uvarint()
		if err := r.Err(); err != nil {
			return n, fmt.Errorf("segtree: decode inner: %w", err)
		}
	case nodeLeaf, nodeFrag:
		n.leaf = true
		n.ref.Hole = r.Bool()
		n.ref.Page.Blob = r.Uvarint()
		n.ref.Page.Version = r.Uvarint()
		n.ref.Page.Index = r.Uvarint()
		n.ref.Providers = r.StringSlice()
		if raw[0] == nodeFrag {
			if err := n.decodeChain(r); err != nil {
				return n, err
			}
		}
		if err := r.Err(); err != nil {
			return n, fmt.Errorf("segtree: decode leaf: %w", err)
		}
	default:
		return n, fmt.Errorf("segtree: unknown node tag %d", raw[0])
	}
	return n, nil
}

// decodeChain reads what a fragment leaf carries after a leaf's fields:
// its offset, then the chain behind it, which descends strictly in
// version and in offset to the slot prefix at offset 0.
func (n *node) decodeChain(r *wire.Reader) error {
	lo, links := r.Uvarint(), r.Uvarint()
	if r.Err() != nil {
		return nil // the caller reports the reader's error
	}
	if lo == 0 || lo > math.MaxUint32 || links == 0 || links >= MaxSlotFragments {
		return fmt.Errorf("segtree: fragment leaf at offset %d with a chain of %d", lo, links)
	}
	n.ref.Lo = uint32(lo)
	n.chain = make([]Frag, links)
	prev := Frag{Ver: math.MaxUint64, Lo: lo}
	for i := range n.chain {
		f := Frag{Ver: r.Uvarint(), Lo: r.Uvarint()}
		if r.Err() != nil {
			return nil
		}
		if f.Ver >= prev.Ver || f.Lo >= prev.Lo || (f.Lo == 0) != (i == len(n.chain)-1) {
			return fmt.Errorf("segtree: fragment chain out of order at link %d", i)
		}
		n.chain[i], prev = f, f
	}
	return nil
}

// treeNode is one node a version's tree must own: its page range and,
// for an inner node (span > 1), its two child pointers.
type treeNode struct {
	off, span                 uint64
	leftPresent, rightPresent bool
	leftVer, rightVer         uint64
}

// builder lists the nodes of one version's tree, children before
// parents.
type builder struct {
	w       WriteRecord
	history []WriteRecord // ascending by Ver, all Ver < w.Ver
	nodes   []treeNode
}

// newBuilder sizes the node list for the worst case: a write of N pages
// meets at most N/s+2 nodes of span s, and each level adds at most one
// wrapper node (childPointer), always the leftmost of its level.
func newBuilder(w WriteRecord, history []WriteRecord) *builder {
	levels := uint64(bits.Len64(RootSpan(w.PagesAfter)))
	return &builder{w: w, history: history, nodes: make([]treeNode, 0, 2*w.N+3*levels)}
}

// intersects reports whether [aOff, aOff+aN) and [bOff, bOff+bN) overlap.
func intersects(aOff, aN, bOff, bN uint64) bool {
	return aOff < bOff+bN && bOff < aOff+aN
}

// latest returns the most recent history record whose write interval
// intersects [off, off+span), or nil.
func (b *builder) latest(off, span uint64) *WriteRecord {
	for i := len(b.history) - 1; i >= 0; i-- {
		rec := &b.history[i]
		if intersects(rec.Off, rec.N, off, span) {
			return rec
		}
	}
	return nil
}

// childPointer decides how the node being built refers to the child
// range [off, off+span): create it in this version (build recurses),
// reuse an older version's node, or mark it absent (hole).
func (b *builder) childPointer(off, span uint64) (present bool, ver uint64, create bool) {
	if intersects(b.w.Off, b.w.N, off, span) {
		return true, b.w.Ver, true
	}
	rec := b.latest(off, span)
	if rec == nil {
		return false, 0, false
	}
	if RootSpan(rec.PagesAfter) >= span {
		return true, rec.Ver, false
	}
	// The last version writing here had a smaller tree than this range;
	// the grid has since grown, so this version must materialize a
	// wrapper node covering the range.
	return true, b.w.Ver, true
}

// build lists the node covering [off, off+span) after all descendants
// this version must own.
func (b *builder) build(off, span uint64) {
	n := treeNode{off: off, span: span}
	if span > 1 {
		half := span / 2
		var lc, rc bool
		n.leftPresent, n.leftVer, lc = b.childPointer(off, half)
		n.rightPresent, n.rightVer, rc = b.childPointer(off+half, half)
		if lc {
			b.build(off, half)
		}
		if rc {
			b.build(off+half, half)
		}
	}
	b.nodes = append(b.nodes, n)
}

// Commit computes and stores all tree nodes for version w of blob.
// refs[i] describes page w.Off+i; history lists the write intervals of
// every assigned version below w.Ver (ascending). The commit is one
// batched write to the node store and reads nothing. The keys handed to
// the store share one backing string and the values one backing slice.
// With w.Head set, refs[0] describes a fragment and its leaf lists the
// chain history gives the slot; a history with no chain there, or a full
// one, is refused.
func Commit(ctx context.Context, store NodeStore, blob uint64, w WriteRecord, history []WriteRecord, refs []PageRef) error {
	if w.N == 0 {
		return errors.New("segtree: zero-length write")
	}
	if uint64(len(refs)) != w.N {
		return fmt.Errorf("segtree: %d refs for %d pages", len(refs), w.N)
	}
	if w.Off+w.N > w.PagesAfter {
		return fmt.Errorf("segtree: write [%d,%d) exceeds PagesAfter %d", w.Off, w.Off+w.N, w.PagesAfter)
	}
	for _, h := range history {
		if h.Ver >= w.Ver {
			return fmt.Errorf("segtree: history version %d >= committing version %d", h.Ver, w.Ver)
		}
	}
	var chain []Frag
	if w.Head != 0 {
		var buf [MaxSlotFragments]Frag
		chain = Chain(history, w.Off, buf[:0])
		if chain == nil || len(chain) >= MaxSlotFragments || chain[0].Lo >= w.Head || w.Head > math.MaxUint32 {
			return fmt.Errorf("segtree: version %d stores a fragment at offset %d of page %d behind a chain of %d", w.Ver, w.Head, w.Off, len(chain))
		}
	}
	root := RootSpan(w.PagesAfter)
	b := newBuilder(w, history)
	b.build(0, root)

	// No offset reaches PagesAfter, no span exceeds the root's and no
	// child is newer than w, which bounds both slabs before rendering.
	valBytes := len(b.nodes) * (3 + 2*uvarintLen(w.Ver))
	for _, ref := range refs {
		valBytes += leafLen(ref, nil)
	}
	if chain != nil { // what a fragment's leaf carries after a leaf's fields, and to spare
		valBytes += leafLen(PageRef{Lo: uint32(w.Head)}, chain)
	}
	var ks keySlab
	ks.Grow(len(b.nodes) * keyLen(blob, w.Ver, w.PagesAfter, root))
	valSlab := make([]byte, 0, valBytes)
	keys := make([]string, len(b.nodes))
	values := make([][]byte, len(b.nodes))
	for i, n := range b.nodes {
		keys[i] = ks.add(blob, w.Ver, n.off, n.span)
		v0 := len(valSlab)
		switch {
		case n.span > 1:
			valSlab = appendInner(valSlab, n.leftPresent, n.leftVer, n.rightPresent, n.rightVer)
		case n.off == w.Off:
			ref := refs[0]
			ref.Lo = uint32(w.Head)
			valSlab = appendLeaf(valSlab, ref, chain)
		case intersects(w.Off, w.N, n.off, 1):
			valSlab = appendLeaf(valSlab, refs[n.off-w.Off], nil)
		default: // wrapper leaf outside the write with no prior writer
			valSlab = appendLeaf(valSlab, PageRef{Hole: true}, nil)
		}
		// Like a key, a value stays valid if a wrong bound makes its
		// slab grow later.
		values[i] = valSlab[v0:len(valSlab):len(valSlab)]
	}
	return store.PutNodes(ctx, keys, values)
}

// NodeRef names one stored node of a version's tree by the page range
// [Off, Off+Span) it covers; NodeKey renders its store key.
type NodeRef struct {
	Off  uint64
	Span uint64
}

// VersionNodes returns the range of every node version w's commit
// stored — the exact node set Commit (or a seal) wrote — computed from
// the write-record history alone, without reading the tree. The garbage
// collector uses it to enumerate a dead version's metadata nodes: a
// node of dead version v is reclaimable iff its range is intersected by
// some later write at or below the next protected (live or pinned)
// version, because then every protected tree resolves that range
// through the later writer's node instead.
func VersionNodes(w WriteRecord, history []WriteRecord) []NodeRef {
	b := newBuilder(w, history)
	b.build(0, RootSpan(w.PagesAfter))
	out := make([]NodeRef, len(b.nodes))
	for i, n := range b.nodes {
		out[i] = NodeRef{Off: n.off, Span: n.span}
	}
	return out
}

// DecodeLeaf parses a stored leaf node into its PageRef. It fails on
// inner nodes and corrupt encodings.
func DecodeLeaf(raw []byte) (PageRef, error) {
	n, err := decodeNode(raw)
	if err != nil {
		return PageRef{}, err
	}
	if !n.leaf {
		return PageRef{}, errors.New("segtree: not a leaf node")
	}
	return n.ref, nil
}

// NodeDeleter is the optional deletion capability of a NodeStore.
// Stores that support it let the garbage collector reclaim the tree
// nodes of collected versions; both MemStore and the DHT-backed store
// implement it.
type NodeDeleter interface {
	// DeleteNodes removes the given keys. Missing keys are not errors.
	DeleteNodes(ctx context.Context, keys []string) error
}

// resolveItem is one frontier entry of the level-ordered descent: the
// node of version ver's tree that begins at page off. The nodes of a
// level all have the level's span.
type resolveItem struct {
	ver uint64
	off uint64
}

// scratch is everything a Resolve allocates beside its result: the
// frontier and the level after it, the level getLevel fetched last, and
// the chain level. A Resolve takes one from scratchPool and hands it
// back, so the slices keep what they grew to and a descent over a warm
// NodeCache allocates its result and nothing else.
type scratch struct {
	frontier, next []resolveItem
	nodes          []node   // the fetched level, decoded
	miss           []int    // the positions in it the cache did not hold
	keys           []string // the keys of those
	// The leaves behind the fragment leaves met, and the offset each must
	// turn out to begin at.
	chains   []resolveItem
	chainLos []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getLevel returns the decoded nodes of one level, in the level's order;
// they are s.nodes, valid until the next call. It is the one place
// Resolve and Written read the store: when the store is a NodeCache the nodes it
// holds come from there and only the others are fetched, as one batch
// whose keys are substrings of one slab, and join the cache once every
// one of them has arrived and decoded. A level the cache holds whole
// renders no key and sends nothing.
func getLevel(ctx context.Context, store NodeStore, blob, span uint64, level []resolveItem, s *scratch) ([]node, error) {
	s.nodes = slices.Grow(s.nodes[:0], len(level))[:len(level)]
	s.miss = s.miss[:0]
	cache, _ := store.(*NodeCache)
	if cache != nil {
		cache.take(blob, span, level, s)
	} else {
		for i := range level {
			s.miss = append(s.miss, i)
		}
	}
	if len(s.miss) == 0 {
		return s.nodes, nil
	}
	keyBytes := 0
	for _, i := range s.miss {
		keyBytes += keyLen(blob, level[i].ver, level[i].off, span)
	}
	var ks keySlab
	ks.Grow(keyBytes)
	s.keys = s.keys[:0]
	for _, i := range s.miss {
		s.keys = append(s.keys, ks.add(blob, level[i].ver, level[i].off, span))
	}
	raws, err := store.GetNodes(ctx, s.keys)
	if err != nil {
		return nil, err
	}
	if len(raws) != len(s.keys) {
		return nil, fmt.Errorf("segtree: node store answered %d keys with %d values", len(s.keys), len(raws))
	}
	for j, i := range s.miss {
		if raws[j] == nil {
			return nil, fmt.Errorf("%w: %s", ErrNodeMissing, FormatKey(s.keys[j]))
		}
		if s.nodes[i], err = decodeNode(raws[j]); err != nil {
			return nil, err
		}
	}
	if cache != nil {
		cache.add(blob, span, level, s)
	}
	return s.nodes, nil
}

// Resolve walks version ver's tree (for a BLOB that has `pages` pages at
// that version) and returns the descriptors of all stored pages of the
// slots overlapping [off, off+n), ordered by index, then by Ref.Lo: a
// whole page is one entry, a slot stored as fragments one entry per
// fragment, the slot prefix (Lo 0) first. Holes come back with Ref.Hole
// == true. The descent is breadth-first with one batched node fetch per
// level, plus one for all the chains the leaves name, so a read of p
// pages costs O(log pages) round trips, not O(p) — and through a
// NodeCache only the levels holding a node nobody resolved before cost
// one at all ("Caching" in the package comment): ver must then be a
// published version.
func Resolve(ctx context.Context, store NodeStore, blob, ver, pages, off, n uint64) ([]Slot, error) {
	if n == 0 || pages == 0 {
		return nil, nil
	}
	if off+n > pages {
		return nil, fmt.Errorf("segtree: resolve [%d,%d) beyond %d pages", off, off+n, pages)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.frontier = append(s.frontier[:0], resolveItem{ver: ver})
	s.chains, s.chainLos = s.chains[:0], s.chainLos[:0]
	slots := make([]Slot, 0, n)

	for span := RootSpan(pages); len(s.frontier) > 0; span /= 2 {
		nodes, err := getLevel(ctx, store, blob, span, s.frontier, s)
		if err != nil {
			return nil, err
		}
		s.next = s.next[:0]
		half := span / 2
		for i, it := range s.frontier {
			nd := &nodes[i]
			if nd.leaf {
				if span != 1 {
					return nil, fmt.Errorf("segtree: leaf with span %d", span)
				}
				slots = append(slots, Slot{Index: it.off, Ref: nd.ref})
				for _, f := range nd.chain {
					s.chains = append(s.chains, resolveItem{ver: f.Ver, off: it.off})
					s.chainLos = append(s.chainLos, f.Lo)
				}
				continue
			}
			if intersects(off, n, it.off, half) {
				if nd.leftPresent {
					s.next = append(s.next, resolveItem{ver: nd.leftVer, off: it.off})
				} else {
					slots = appendHoles(slots, it.off, half, off, n)
				}
			}
			if intersects(off, n, it.off+half, half) {
				if nd.rightPresent {
					s.next = append(s.next, resolveItem{ver: nd.rightVer, off: it.off + half})
				} else {
					slots = appendHoles(slots, it.off+half, half, off, n)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	if len(s.chains) > 0 {
		nodes, err := getLevel(ctx, store, blob, 1, s.chains, s)
		if err != nil {
			return nil, err
		}
		for i, it := range s.chains {
			nd := &nodes[i]
			if !nd.leaf || uint64(nd.ref.Lo) != s.chainLos[i] {
				return nil, fmt.Errorf("segtree: chain names %s at offset %d, the node disagrees", FormatKey(LeafKey(blob, it.ver, it.off)), s.chainLos[i])
			}
			slots = append(slots, Slot{Index: it.off, Ref: nd.ref})
		}
	}

	// Keep only slots inside the query, order them, and count the slot
	// prefixes: every page of the query has exactly one.
	out := slots[:0]
	var prefixes uint64
	for _, sl := range slots {
		if sl.Index >= off && sl.Index < off+n {
			out = append(out, sl)
			if sl.Ref.Lo == 0 {
				prefixes++
			}
		}
	}
	sortSlots(out)
	if prefixes != n {
		return nil, fmt.Errorf("segtree: resolved %d of %d pages", prefixes, n)
	}
	return out, nil
}

// Written returns the pages version ver itself stored in slots
// [first, first+n), one Slot per slot, ordered by index: ver's own leaf
// at each, a whole page or the fragment ver began at its Head. It
// resolves no snapshot. Every node on the path to a page ver wrote is
// ver's, so the leaves are named by (ver, page) and fetched as one level
// through getLevel, and a NodeCache serves those it holds ("Caching" in
// the package comment: ver must then have completed). A page that is not
// one ver stored is refused: no leaf, a hole (every leaf of a sealed
// version is one), or a leaf naming another page. The chain behind a
// fragment is not followed; the bytes before ver's Head are earlier
// versions'.
func Written(ctx context.Context, store NodeStore, blob, ver, first, n uint64) ([]Slot, error) {
	if n == 0 {
		return nil, nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.frontier = s.frontier[:0]
	for p := first; p < first+n; p++ {
		s.frontier = append(s.frontier, resolveItem{ver: ver, off: p})
	}
	nodes, err := getLevel(ctx, store, blob, 1, s.frontier, s)
	if err != nil {
		return nil, err
	}
	slots := make([]Slot, n)
	for i, it := range s.frontier {
		nd := &nodes[i]
		if !nd.leaf || nd.ref.Hole || nd.ref.Page.Version != ver || nd.ref.Page.Index != it.off {
			return nil, fmt.Errorf("segtree: version %d stored no page at %s", ver, FormatKey(LeafKey(blob, ver, it.off)))
		}
		slots[i] = Slot{Index: it.off, Ref: nd.ref}
	}
	return slots, nil
}

// appendHoles emits hole slots for the pages of [rOff, rOff+rSpan) that
// fall inside the query [qOff, qOff+qN).
func appendHoles(slots []Slot, rOff, rSpan, qOff, qN uint64) []Slot {
	lo, hi := rOff, rOff+rSpan
	if qOff > lo {
		lo = qOff
	}
	if qOff+qN < hi {
		hi = qOff + qN
	}
	for p := lo; p < hi; p++ {
		slots = append(slots, Slot{Index: p, Ref: PageRef{Hole: true}})
	}
	return slots
}

// sortSlots orders by page index, then by offset within the slot
// (insertion sort: slices are small and nearly sorted because the
// descent is left-to-right per level).
func sortSlots(s []Slot) {
	before := func(a, b *Slot) bool {
		return a.Index < b.Index || (a.Index == b.Index && a.Ref.Lo < b.Ref.Lo)
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && before(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// MemStore is an in-memory NodeStore for tests and single-process use.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// PutNodes implements NodeStore.
func (s *MemStore) PutNodes(_ context.Context, keys []string, values [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		s.m[k] = values[i]
	}
	return nil
}

// GetNodes implements NodeStore.
func (s *MemStore) GetNodes(_ context.Context, keys []string) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out, nil
}

// DeleteNodes implements NodeDeleter.
func (s *MemStore) DeleteNodes(_ context.Context, keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.m, k)
	}
	return nil
}

// Len returns the number of stored nodes.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
