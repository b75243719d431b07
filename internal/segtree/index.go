package segtree

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// Index is one BLOB's write records arranged for reading by address
// ("Reading by address" in the package comment): beside the records it
// keeps, per page slot, the ascending versions that stored into the
// slot, so the newest writer of a page at or below a version is a binary
// search and the slot's chain a walk back from there. Records arrive in
// version order through Extend and never change. The slots are kept in
// chunks of slotChunk, made only where a record stores, so the index
// grows with the pages written, not with the highest one: a write far
// past the end costs a chunk, not the hole before it. It is safe for
// concurrent use.
type Index struct {
	mu     sync.Mutex
	recs   []WriteRecord                   // recs[i] is version i+1's
	chunks map[uint64]*[slotChunk]slotVers // by page index / slotChunk
}

// slotChunk is how many page slots the index makes at a time.
const slotChunk = 64

// slotVers lists the versions that stored into one page slot, ascending:
// the first inline, since most slots are stored once, the others behind
// it.
type slotVers struct {
	first uint64 // 0 while nothing stored into the slot
	more  []uint64
}

func (s *slotVers) at(i int) uint64 {
	if i == 0 {
		return s.first
	}
	return s.more[i-1]
}

// upTo returns how many of the slot's versions are at most ver.
func (s *slotVers) upTo(ver uint64) int {
	if s.first == 0 || s.first > ver {
		return 0
	}
	k, _ := slices.BinarySearch(s.more, ver+1)
	return 1 + k
}

// Len returns how many versions the index holds the records of.
func (ix *Index) Len() uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return uint64(len(ix.recs))
}

// Extend adds the records of recs the index does not hold yet. recs is a
// complete history prefix, recs[i] the record of version i+1, and the
// index keeps it without copying: its elements must never change (they
// do not in the blob client's record cache, which hands out such
// prefixes). A prefix no longer than the one held changes nothing.
func (ix *Index) Extend(recs []WriteRecord) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(recs) <= len(ix.recs) {
		return
	}
	if ix.chunks == nil {
		ix.chunks = make(map[uint64]*[slotChunk]slotVers)
	}
	for i := range recs[len(ix.recs):] {
		rec := &recs[len(ix.recs)+i]
		var chunk *[slotChunk]slotVers
		for p := rec.Off; p < rec.Off+rec.N; p++ {
			if chunk == nil || p%slotChunk == 0 {
				if chunk = ix.chunks[p/slotChunk]; chunk == nil {
					chunk = new([slotChunk]slotVers)
					ix.chunks[p/slotChunk] = chunk
				}
			}
			if s := &chunk[p%slotChunk]; s.first == 0 {
				s.first = rec.Ver
			} else {
				s.more = append(s.more, rec.Ver)
			}
		}
	}
	ix.recs = recs
}

// chainLocked is Chain over the records at or below ver, for one slot,
// without scanning them: the newest version at or below ver that stored
// into the slot, and back from there until a slot prefix. It is empty
// when no such version stored into the slot. Caller holds ix.mu.
func (ix *Index) chainLocked(slot, ver uint64, buf []Frag) ([]Frag, error) {
	buf = buf[:0]
	chunk := ix.chunks[slot/slotChunk]
	if chunk == nil {
		return buf, nil // no record stored into the slot's chunk
	}
	s := &chunk[slot%slotChunk]
	for j := s.upTo(ver) - 1; j >= 0 && len(buf) < MaxSlotFragments; j-- {
		rec := &ix.recs[s.at(j)-1]
		var lo uint64
		if slot == rec.Off {
			lo = rec.Head
		}
		buf = append(buf, Frag{Ver: rec.Ver, Lo: lo})
		if lo == 0 {
			return buf, nil
		}
	}
	if len(buf) == 0 {
		return buf, nil
	}
	return nil, fmt.Errorf("segtree: page %d of version %d has no slot prefix within %d stored pages", slot, ver, len(buf))
}

// Locate is Resolve by address. It returns exactly what Resolve returns
// for pages [off, off+n) of version ver: one Slot per stored page,
// ordered by index and then by Ref.Lo, a hole where no version at or
// below ver wrote, and a fragment's whole chain. The leaf of page p is
// that of the newest version at or below ver that stored into p, and
// the chain behind a fragment is Chain's, so every leaf is named by the
// index, none by a tree: the read is one batch of the leaves a NodeCache
// lacks, through getLevel, whatever the BLOB's size or version count.
// ver must be indexed; through a NodeCache it must be published, as for
// Resolve ("Caching" in the package comment).
func (ix *Index) Locate(ctx context.Context, store NodeStore, blob, ver, off, n uint64) ([]Slot, error) {
	s := scratches.Take(func() *scratch { return new(scratch) })
	defer scratches.Give(s)
	slots, err := ix.name(s, ver, off, n)
	if err != nil || len(s.frontier) == 0 {
		return slots, err
	}
	nodes, err := getLevel(ctx, store, blob, 1, s.frontier, s)
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range slots {
		if slots[i].Ref.Hole {
			continue // no version wrote the page: no leaf was asked for
		}
		nd, it := &nodes[k], s.frontier[k]
		if !nd.leaf || uint64(nd.ref.Lo) != s.chainLos[k] {
			return nil, fmt.Errorf("segtree: chain names %s at offset %d, the node disagrees", FormatKey(LeafKey(blob, it.ver, it.off)), s.chainLos[k])
		}
		slots[i].Ref = nd.ref
		k++
	}
	return slots, nil
}

// name is Locate's lookup, under the lock: the slots of the read with
// the holes filled in, and in s.frontier the leaf of each other slot, in
// the same order, with in s.chainLos the offset that leaf must begin at.
func (ix *Index) name(s *scratch, ver, off, n uint64) ([]Slot, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s.frontier, s.chainLos = s.frontier[:0], s.chainLos[:0]
	if ver > uint64(len(ix.recs)) {
		return nil, fmt.Errorf("segtree: version %d located with %d records indexed", ver, len(ix.recs))
	}
	var pages uint64
	if ver > 0 {
		pages = ix.recs[ver-1].PagesAfter
	}
	if n == 0 || pages == 0 {
		return nil, nil
	}
	if off+n > pages {
		return nil, fmt.Errorf("segtree: locate [%d,%d) beyond %d pages", off, off+n, pages)
	}
	slots := make([]Slot, 0, n)
	var buf [MaxSlotFragments]Frag
	for p := off; p < off+n; p++ {
		chain, err := ix.chainLocked(p, ver, buf[:0])
		if err != nil {
			return nil, err
		}
		if len(chain) == 0 {
			slots = append(slots, Slot{Index: p, Ref: PageRef{Hole: true}})
			continue
		}
		for j := len(chain) - 1; j >= 0; j-- { // the slot prefix first
			slots = append(slots, Slot{Index: p})
			s.frontier = append(s.frontier, resolveItem{ver: chain[j].Ver, off: p})
			s.chainLos = append(s.chainLos, chain[j].Lo)
		}
	}
	return slots, nil
}
