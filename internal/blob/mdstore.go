package blob

import (
	"context"

	"blobseer/internal/dht"
)

// dhtNodeStore adapts the metadata DHT to segtree.NodeStore, so tree
// commits and resolves go through the metadata providers.
type dhtNodeStore struct {
	c *dht.Client
}

// NewNodeStore wraps a DHT client as a segment-tree node store.
func NewNodeStore(c *dht.Client) *dhtNodeStore { //nolint:revive // deliberately unexported type
	return &dhtNodeStore{c: c}
}

// PutNodes implements segtree.NodeStore. PutEntries keeps no reference
// to keys or values once it returns, as the interface asks.
func (s *dhtNodeStore) PutNodes(ctx context.Context, keys []string, values [][]byte) error {
	return s.c.PutEntries(ctx, keys, values)
}

// GetNodes implements segtree.NodeStore.
func (s *dhtNodeStore) GetNodes(ctx context.Context, keys []string) ([][]byte, error) {
	return s.c.GetBatch(ctx, keys)
}

// DeleteNodes implements segtree.NodeDeleter: the garbage collector
// reclaims the tree nodes of collected versions through it. A failed
// member batch surfaces as an error so the collector re-queues the
// whole (idempotent) item instead of leaking nodes on the member that
// was down.
func (s *dhtNodeStore) DeleteNodes(ctx context.Context, keys []string) error {
	return s.c.DeleteBatch(ctx, keys)
}
