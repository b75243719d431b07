package segtree

import (
	"context"
	"slices"
	"sync"
)

// nodeCacheCap bounds a NodeCache, in nodes: a cache that reaches it is
// dropped and rebuilt by the reads that follow, as the blob client's
// other side-caches are. A cached node costs its identity, its decoded
// fields and a leaf's provider list, some 200 bytes with the map's own
// slack, so a full cache is 10 to 20 MB.
const nodeCacheCap = 1 << 16

// nodeID is a node's identity, the four numbers NodeKey renders.
type nodeID struct{ blob, ver, off, span uint64 }

// NodeCache is a NodeStore that keeps, decoded, the tree nodes Resolve
// and Written fetched through it, so that no read after fetches them
// again; see
// "Caching" in the package comment for why that is sound and who forgets
// what. PutNodes and GetNodes go straight to the store behind it: a
// commit fills nothing, so a client that only writes pays nothing. It is
// safe for concurrent use.
type NodeCache struct {
	store deletingStore

	mu    sync.Mutex
	nodes map[nodeID]node
}

// deletingStore is what a NodeCache asks of the store behind it: a node
// deleted there must be forgotten here, so deletions go through the
// cache and the store has to offer them.
type deletingStore interface {
	NodeStore
	NodeDeleter
}

// NewNodeCache returns an empty cache over store.
func NewNodeCache(store deletingStore) *NodeCache {
	return &NodeCache{store: store, nodes: make(map[nodeID]node)}
}

// PutNodes implements NodeStore: it passes the batch to the store
// behind it and keeps nothing of it.
func (c *NodeCache) PutNodes(ctx context.Context, keys []string, values [][]byte) error {
	return c.store.PutNodes(ctx, keys, values)
}

// GetNodes implements NodeStore.
func (c *NodeCache) GetNodes(ctx context.Context, keys []string) ([][]byte, error) {
	return c.store.GetNodes(ctx, keys)
}

// DeleteNodes implements NodeDeleter: the store deletes the keys, then
// the cache forgets them, whatever the store answered.
func (c *NodeCache) DeleteNodes(ctx context.Context, keys []string) error {
	err := c.store.DeleteNodes(ctx, keys)
	c.mu.Lock()
	for _, key := range keys {
		if blob, ver, off, span, ok := ParseKey(key); ok {
			delete(c.nodes, nodeID{blob, ver, off, span})
		}
	}
	c.mu.Unlock()
	return err
}

// ForgetVersion drops the nodes version ver of blob wrote.
func (c *NodeCache) ForgetVersion(blob, ver uint64) {
	c.mu.Lock()
	for id := range c.nodes {
		if id.blob == blob && id.ver == ver {
			delete(c.nodes, id)
		}
	}
	c.mu.Unlock()
}

// ForgetBlob drops every node of the named BLOBs.
func (c *NodeCache) ForgetBlob(blobs ...uint64) {
	c.mu.Lock()
	for id := range c.nodes {
		if slices.Contains(blobs, id.blob) {
			delete(c.nodes, id)
		}
	}
	c.mu.Unlock()
}

// Len returns how many nodes the cache holds.
func (c *NodeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Holds returns how many of them version ver of blob wrote.
//
//lint:unusedexport test hook: the segtree, blob and gc tests count cached nodes
func (c *NodeCache) Holds(blob, ver uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id := range c.nodes {
		if id.blob == blob && id.ver == ver {
			n++
		}
	}
	return n
}

// take is getLevel's lookup: it copies the nodes of level the cache
// holds to their places in s.nodes and lists the places of the others
// in s.miss.
func (c *NodeCache) take(blob, span uint64, level []resolveItem, s *scratch) {
	c.mu.Lock()
	for i, it := range level {
		nd, ok := c.nodes[nodeID{blob, it.ver, it.off, span}]
		if !ok {
			s.miss = append(s.miss, i)
			continue
		}
		s.nodes[i] = nd
	}
	c.mu.Unlock()
}

// add is getLevel's insert: the nodes at s.miss, fetched and decoded,
// join the cache. Two Resolves that missed the same node both fetch it
// and both add it; the node is immutable, so the second add changes
// nothing.
func (c *NodeCache) add(blob, span uint64, level []resolveItem, s *scratch) {
	c.mu.Lock()
	for _, i := range s.miss {
		if len(c.nodes) >= nodeCacheCap {
			c.nodes = make(map[nodeID]node)
		}
		c.nodes[nodeID{blob, level[i].ver, level[i].off, span}] = s.nodes[i]
	}
	c.mu.Unlock()
}
