package dht

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

// testCluster spins up n metadata providers on a MemNet.
func testCluster(t testing.TB, n, replicas int) (*Client, []*Server) {
	t.Helper()
	return testClusterOn(t, transport.NewMemNet(), n, replicas)
}

func testClusterOn(t testing.TB, net transport.Network, n, replicas int) (*Client, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	members := make([]transport.Addr, n)
	for i := range servers {
		addr := transport.MakeAddr(fmt.Sprintf("meta-%d", i), "dht")
		s, err := NewServer(net, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		members[i] = addr
	}
	pool := rpc.NewPool(net, "client/dht")
	t.Cleanup(func() { pool.Close() })
	return NewClient(NewRing(members, 64), pool, replicas), servers
}

// put stores one entry through a batch of one.
func put(ctx context.Context, c *Client, key string, value []byte) error {
	return c.PutBatch(ctx, []KV{{Key: key, Value: value}})
}

// get reads one entry through a batch of one: nil when it is missing
// everywhere.
func get(ctx context.Context, c *Client, key string) ([]byte, error) {
	vs, err := c.GetBatch(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

func TestPutGet(t *testing.T) {
	c, _ := testCluster(t, 5, 2)
	ctx := context.Background()
	if err := put(ctx, c, "node/1/0/8", []byte("tree node")); err != nil {
		t.Fatal(err)
	}
	v, err := get(ctx, c, "node/1/0/8")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "tree node" {
		t.Fatalf("Get = %q", v)
	}
}

func TestGetMissing(t *testing.T) {
	c, _ := testCluster(t, 3, 2)
	if v, err := get(context.Background(), c, "nope"); err != nil || v != nil {
		t.Fatalf("get of a missing key = %q, %v; want nil, nil", v, err)
	}
}

func TestDelete(t *testing.T) {
	c, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	if err := put(ctx, c, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteBatch(ctx, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if v, err := get(ctx, c, "k"); err != nil || v != nil {
		t.Fatalf("after delete: %q, %v", v, err)
	}
}

func TestReplication(t *testing.T) {
	c, servers := testCluster(t, 5, 3)
	ctx := context.Background()
	const keys = 100
	for i := 0; i < keys; i++ {
		if err := put(ctx, c, fmt.Sprintf("key-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, s := range servers {
		total += s.Len()
	}
	if total != keys*3 {
		t.Errorf("total stored entries = %d, want %d (3 replicas each)", total, keys*3)
	}
}

func TestSurvivesReplicaFailure(t *testing.T) {
	c, servers := testCluster(t, 5, 3)
	ctx := context.Background()
	const keys = 50
	for i := 0; i < keys; i++ {
		if err := put(ctx, c, fmt.Sprintf("key-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill two of five providers; with 3 replicas every key survives.
	servers[1].Close()
	servers[3].Close()
	for i := 0; i < keys; i++ {
		v, err := get(ctx, c, fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("Get key-%d after failures: %v", i, err)
		}
		if len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("key-%d = %v", i, v)
		}
	}
	// Writes also continue.
	if err := put(ctx, c, "post-failure", []byte("ok")); err != nil {
		t.Fatalf("Put after failures: %v", err)
	}
}

// TestBatchRoundTrip puts, gets and deletes a batch on a narrow ring
// and on one as wide as the paper's 20 metadata providers, so a pooled
// fanOut serves rings of both widths.
func TestBatchRoundTrip(t *testing.T) {
	for _, members := range []int{5, 20} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			c, servers := testCluster(t, members, 2)
			ctx := context.Background()
			kvs := make([]KV, 200)
			keys := make([]string, 200)
			for i := range kvs {
				keys[i] = fmt.Sprintf("batch-%d", i)
				kvs[i] = KV{Key: keys[i], Value: []byte(fmt.Sprintf("val-%d", i))}
			}
			if err := c.PutBatch(ctx, kvs); err != nil {
				t.Fatal(err)
			}
			stored := 0
			for _, s := range servers {
				stored += s.Len()
			}
			if stored != 2*len(kvs) {
				t.Fatalf("members hold %d entries, want %d: two replicas each", stored, 2*len(kvs))
			}
			got, err := c.GetBatch(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if string(got[i]) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("batch get %d = %q", i, got[i])
				}
			}
			if err := c.DeleteBatch(ctx, keys); err != nil {
				t.Fatal(err)
			}
			for _, s := range servers {
				if n := s.Len(); n != 0 {
					t.Fatalf("%d entries left after DeleteBatch", n)
				}
			}
		})
	}
}

func TestGetBatchMissingEntries(t *testing.T) {
	c, _ := testCluster(t, 3, 2)
	ctx := context.Background()
	if err := put(ctx, c, "present", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, []string{"present", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "yes" {
		t.Errorf("got[0] = %q", got[0])
	}
	if got[1] != nil {
		t.Errorf("got[1] = %q, want nil", got[1])
	}
}

func TestEmptyBatch(t *testing.T) {
	c, _ := testCluster(t, 3, 2)
	if err := c.PutBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	out, err := c.GetBatch(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("GetBatch(nil) = %v, %v", out, err)
	}
}

// appendNodeKeys returns the first n segment-tree node keys that
// one-page appends to one BLOB commit: version v owns the nodes above
// page v-1 on every level. They are binary and share most of their
// bytes, which is what the ring has to spread.
func appendNodeKeys(n int) []string {
	keys := make([]string, 0, n)
	for v := uint64(1); ; v++ {
		page := v - 1
		for span := uint64(1); span <= segtree.RootSpan(v); span *= 2 {
			if len(keys) == n {
				return keys
			}
			keys = append(keys, segtree.NodeKey(7, v, page&^(span-1), span))
		}
	}
}

func TestRingBalance(t *testing.T) {
	members := make([]transport.Addr, 20)
	for i := range members {
		members[i] = transport.MakeAddr(fmt.Sprintf("meta-%d", i), "dht")
	}
	textKeys := make([]string, 20000)
	for i := range textKeys {
		textKeys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, tc := range []struct {
		name    string
		members []transport.Addr
		keys    []string
		minLoad float64 // idlest and busiest member's keys over the mean
		maxLoad float64
	}{
		{"text keys, 20 members", members, textKeys, 0.5, 1.5},
		{"node keys of one BLOB, 3 members", members[:3], appendNodeKeys(10000), 0.5, 1.25},
	} {
		ring := NewRing(tc.members, 64)
		counts := make(map[transport.Addr]int)
		for _, k := range tc.keys {
			counts[ring.Primary(k)]++
		}
		mean := float64(len(tc.keys)) / float64(len(tc.members))
		for m, c := range counts {
			if load := float64(c) / mean; load < tc.minLoad || load > tc.maxLoad {
				t.Errorf("%s: member %s holds %d keys, %.2f of the mean %.0f (want %.2f to %.2f)", tc.name, m, c, load, mean, tc.minLoad, tc.maxLoad)
			}
		}
		if len(counts) != len(tc.members) {
			t.Errorf("%s: only %d of %d members received keys", tc.name, len(counts), len(tc.members))
		}
	}
}

func TestRingLookupDistinct(t *testing.T) {
	members := []transport.Addr{"a/dht", "b/dht", "c/dht", "d/dht"}
	ring := NewRing(members, 32)
	for i := 0; i < 100; i++ {
		got := replicas(ring, fmt.Sprintf("k%d", i), 3)
		seen := map[transport.Addr]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("duplicate member %s in replica set", m)
			}
			seen[m] = true
		}
	}
}

// replicas names the first n distinct members for key, in preference
// order; n must not exceed the membership.
func replicas(r *Ring, key string, n int) []transport.Addr {
	idx := make([]int, n)
	r.lookup(key, idx)
	out := make([]transport.Addr, n)
	for i, m := range idx {
		out[i] = r.members[m]
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	members := []transport.Addr{"a/dht", "b/dht", "c/dht"}
	r1 := NewRing(members, 64)
	r2 := NewRing(members, 64)
	keys := appendNodeKeys(50)
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	for _, k := range keys {
		a := replicas(r1, k, 2)
		b := replicas(r2, k, 2)
		if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("ring not deterministic for %q: %v vs %v", k, a, b)
		}
	}
	// The hash is FNV-1a under an avalanche finalizer, whoever computes
	// it: placement must not move when the implementation does.
	for _, k := range keys {
		f := fnv.New64a()
		f.Write([]byte(k))
		h := f.Sum64()
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		if got := hashString(k); got != h {
			t.Fatalf("hashString(%q) = %#x, want %#x", k, got, h)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := testCluster(t, 5, 2)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				if err := put(ctx, c, k, []byte(k)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, err := get(ctx, c, k)
				if err != nil || string(v) != k {
					t.Errorf("get %q = %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerStats: a provider counts the entries it holds, and storing
// a key again replaces its entry.
func TestServerStats(t *testing.T) {
	c, servers := testCluster(t, 1, 1)
	ctx := context.Background()
	for _, kv := range []KV{{"a", make([]byte, 10)}, {"b", make([]byte, 20)}, {"a", make([]byte, 30)}} {
		if err := put(ctx, c, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	if n := servers[0].Len(); n != 2 {
		t.Errorf("Len() = %d, want 2", n)
	}
	if v, err := get(ctx, c, "a"); err != nil || len(v) != 30 {
		t.Errorf("a = %d bytes, %v; want the 30 stored last", len(v), err)
	}
}
