package segtree

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingStore counts the fetches that reach the store behind a cache.
type countingStore struct {
	*MemStore
	calls, keys atomic.Int64
}

func (s *countingStore) GetNodes(ctx context.Context, keys []string) ([][]byte, error) {
	s.calls.Add(1)
	s.keys.Add(int64(len(keys)))
	return s.MemStore.GetNodes(ctx, keys)
}

// TestNodeCacheFetchesANodeOnce: a descent fetches what no earlier
// descent through the cache met and nothing else — the version's whole
// path when the cache is cold, one node (the new root) for a fresh
// version whose append left the page's half of the tree alone, nothing
// for a neighbouring page.
func TestNodeCacheFetchesANodeOnce(t *testing.T) {
	const blob, versions = 31, 12 // 192 pages: 9 levels under a root of span 256
	store := &countingStore{MemStore: appendedTree(t, blob, versions)}
	cache := NewNodeCache(store)
	resolve := func(ver, page uint64) (calls, keys int64) {
		t.Helper()
		c0, k0 := store.calls.Load(), store.keys.Load()
		slots, err := Resolve(ctx, cache, blob, ver, ver*16, page, 1)
		if err != nil || len(slots) != 1 || slots[0].Ref.Page.Index != page {
			t.Fatalf("resolve page %d of version %d: %v, %v", page, ver, slots, err)
		}
		return store.calls.Load() - c0, store.keys.Load() - k0
	}
	if calls, keys := resolve(versions-1, 5); calls != 9 || keys != 9 {
		t.Errorf("a cold descent made %d fetches of %d keys, want 9 of 9: one a level", calls, keys)
	}
	if calls, keys := resolve(versions, 5); calls != 1 || keys != 1 {
		t.Errorf("the same page at the next version made %d fetches of %d keys, want 1 of 1: its root", calls, keys)
	}
	if calls, _ := resolve(versions, 5); calls != 0 {
		t.Errorf("a warm descent made %d fetches", calls)
	}
	// Page 4 shares every node with page 5 but its leaf.
	if calls, keys := resolve(versions, 4); calls != 1 || keys != 1 {
		t.Errorf("the neighbouring page made %d fetches of %d keys, want 1 of 1: its leaf", calls, keys)
	}
}

// TestNodeCacheNeverCachesMissing: a descent that meets a missing node
// fails as it does on a bare store, caches nothing in the node's place,
// and succeeds once the store has the node.
func TestNodeCacheNeverCachesMissing(t *testing.T) {
	const blob = 32
	store := appendedTree(t, blob, 1)
	cache := NewNodeCache(store)
	leaf := LeafKey(blob, 1, 3)
	raws, err := store.GetNodes(ctx, []string{leaf})
	if err != nil || raws[0] == nil {
		t.Fatal(raws, err)
	}
	if err := store.DeleteNodes(ctx, []string{leaf}); err != nil { // behind the cache's back
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := Resolve(ctx, cache, blob, 1, 16, 0, 16); !errors.Is(err, ErrNodeMissing) {
			t.Fatalf("resolve %d over a store that lost a leaf: %v, want ErrNodeMissing", i, err)
		}
		cache.mu.Lock()
		_, held := cache.nodes[nodeID{blob, 1, 3, 1}]
		cache.mu.Unlock()
		if held {
			t.Fatal("the cache holds an entry for the node the store does not have")
		}
	}
	if err := store.PutNodes(ctx, []string{leaf}, raws); err != nil {
		t.Fatal(err)
	}
	want, err := Resolve(ctx, store, blob, 1, 16, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Resolve(ctx, cache, blob, 1, 16, 0, 16); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("resolve once the leaf is back: %v, %v", got, err)
	}
}

// TestNodeCacheForgets: DeleteNodes forgets the keys it deletes, whose
// next descent then fails as it would on the store; ForgetVersion drops
// the nodes one version wrote and ForgetBlob a BLOB's, and leave the rest.
func TestNodeCacheForgets(t *testing.T) {
	store := appendedTree(t, 33, 4)
	appendTree(t, store, 34, 1)
	cache := NewNodeCache(store)
	warm := func() {
		t.Helper()
		if _, err := Resolve(ctx, cache, 33, 4, 64, 0, 64); err != nil {
			t.Fatal(err)
		}
		if _, err := Resolve(ctx, cache, 34, 1, 16, 0, 16); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	all := cache.Len()
	v2 := cache.Holds(33, 2)
	if v2 < 16 || cache.Holds(34, 1) != 31 {
		t.Fatalf("warm cache holds %d nodes of version 2 and %d of BLOB 34", v2, cache.Holds(34, 1))
	}

	cache.ForgetVersion(33, 2)
	if cache.Holds(33, 2) != 0 || cache.Len() != all-v2 {
		t.Errorf("after ForgetVersion the cache holds %d nodes of the version and %d in all, want 0 and %d", cache.Holds(33, 2), cache.Len(), all-v2)
	}
	warm()
	cache.ForgetBlob(33)
	if cache.Len() != 31 || cache.Holds(34, 1) != 31 {
		t.Errorf("after ForgetBlob(33) the cache holds %d nodes, %d of BLOB 34, want 31 and 31", cache.Len(), cache.Holds(34, 1))
	}
	warm()

	// Version 2's leaves are part of version 4's tree.
	dead := []string{LeafKey(33, 2, 20), LeafKey(33, 2, 21)}
	stored := store.Len()
	if err := cache.DeleteNodes(ctx, dead); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != stored-2 {
		t.Errorf("the store holds %d nodes after DeleteNodes, want %d", got, stored-2)
	}
	if got := cache.Holds(33, 2); got != v2-2 {
		t.Errorf("the cache holds %d nodes of version 2 after two were deleted, want %d", got, v2-2)
	}
	if _, err := Resolve(ctx, cache, 33, 4, 64, 20, 1); !errors.Is(err, ErrNodeMissing) {
		t.Errorf("resolve of a deleted leaf through the cache: %v, want ErrNodeMissing", err)
	}
	if _, err := Resolve(ctx, cache, 33, 4, 64, 22, 1); err != nil {
		t.Errorf("resolve of its neighbour: %v", err)
	}
}

// TestNodeCacheBounded: the cache never holds more than nodeCacheCap
// nodes — reaching the bound drops it — and descents on either side of
// the drop answer as the bare store does.
func TestNodeCacheBounded(t *testing.T) {
	const blob, pages, step = 35, 40000, 2500 // ~80000 nodes
	store := NewMemStore()
	w := WriteRecord{Ver: 1, Off: 0, N: pages, PagesAfter: pages}
	if err := Commit(ctx, store, blob, w, nil, mkRefs(blob, 1, 0, pages)); err != nil {
		t.Fatal(err)
	}
	if store.Len() <= nodeCacheCap {
		t.Fatalf("the tree has %d nodes, the test needs more than the bound %d", store.Len(), nodeCacheCap)
	}
	cache := NewNodeCache(store)
	dropped := false
	for off, held := uint64(0), 0; off < pages; off += step {
		want, err := Resolve(ctx, store, blob, 1, pages, off, step)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Resolve(ctx, cache, blob, 1, pages, off, step)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("pages [%d,%d) through the cache: %v", off, off+step, err)
		}
		n := cache.Len()
		if n > nodeCacheCap {
			t.Fatalf("the cache holds %d nodes, bound %d", n, nodeCacheCap)
		}
		dropped = dropped || n < held
		held = n
	}
	if !dropped {
		t.Error("the cache never reached its bound")
	}
}

// TestNodeCacheConcurrent runs descents against forgets and deletions of
// the very nodes they read (meaningful under -race): a descent answers
// as the bare store does or fails on a node deleted under it.
func TestNodeCacheConcurrent(t *testing.T) {
	const blob, versions = 36, 8
	store := appendedTree(t, blob, versions)
	cache := NewNodeCache(store)
	want, err := Resolve(ctx, store, blob, versions, versions*16, 0, versions*16)
	if err != nil {
		t.Fatal(err)
	}
	dead := LeafKey(blob, 3, 40)
	raws, _ := store.GetNodes(ctx, []string{dead})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				off := uint64((g*37 + i*5) % (versions*16 - 8))
				got, err := Resolve(ctx, cache, blob, versions, versions*16, off, 8)
				if errors.Is(err, ErrNodeMissing) && off <= 40 && 40 < off+8 {
					continue
				}
				if err != nil || !reflect.DeepEqual(got, want[off:off+8]) {
					t.Errorf("pages [%d,%d): %v, %v", off, off+8, got, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		cache.ForgetVersion(blob, uint64(1+i%versions))
		if err := cache.DeleteNodes(ctx, []string{dead}); err != nil {
			t.Error(err)
		}
		if err := cache.PutNodes(ctx, []string{dead}, raws); err != nil {
			t.Error(err)
		}
		if i%10 == 0 {
			cache.ForgetBlob(blob)
		}
	}
	wg.Wait()
}

// TestResolveAllocationBudget: a one-page descent of an 8192-page tree
// through a warm cache fetches nothing and allocates its result and
// little else, however many levels it crosses; and a descent over a bare
// store costs no more than it did before there was a cache to look in
// (BenchmarkResolve16 at the parent of the change that added it: 86
// objects, 4906 B).
func TestResolveAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	const versions, pages = 512, 512 * 16
	store := &countingStore{MemStore: appendedTree(t, 37, versions)}
	cache := NewNodeCache(store)
	if _, err := Resolve(ctx, cache, 37, versions, pages, 0, pages); err != nil {
		t.Fatal(err)
	}
	fetches := store.calls.Load()
	page := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		page = (page + 1237) % pages
		if _, err := Resolve(ctx, cache, 37, versions, pages, page, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("1-page resolve of %d pages through a warm cache: %.0f allocs", pages, allocs)
	if allocs > 25 {
		t.Errorf("a warm 1-page resolve allocates %.0f objects, budget 25", allocs)
	}
	if got := store.calls.Load() - fetches; got != 0 {
		t.Errorf("warm resolves made %d fetches", got)
	}

	bare := appendedTree(t, 301, 64) // BenchmarkResolve16's tree and reads
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Resolve(ctx, bare, 301, 64, 64*16, uint64(i%63)*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("16-page resolve of 1024 pages over a bare store: %d allocs, %d B", objects, bytes)
	if objects > 86 || bytes > 4906 {
		t.Errorf("a 16-page resolve over a bare store allocates %d objects and %d B, budget 86 and 4906", objects, bytes)
	}
}
