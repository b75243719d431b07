package dht

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Released frames are overwritten in every test of this package: an
// entry a provider kept as an alias of its request frame reads back as
// 0xDB as soon as the frame is recycled.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

func testBatch(tag string, n int) ([]KV, []string) {
	kvs := make([]KV, n)
	keys := make([]string, n)
	for i := range kvs {
		keys[i] = fmt.Sprintf("%s-%d", tag, i)
		kvs[i] = KV{Key: keys[i], Value: []byte(fmt.Sprintf("value of %s-%d", tag, i))}
	}
	return kvs, keys
}

// TestPutBatchNeedsAReplicaPerKey: a batch is acked only if every key
// reached a replica. One member of three down leaves each key (two
// replicas) at least one; two down strands the keys that lived on both.
func TestPutBatchNeedsAReplicaPerKey(t *testing.T) {
	c, servers := testCluster(t, 3, 2)
	ctx := context.Background()

	servers[0].Close()
	kvs, keys := testBatch("one-down", 64)
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatalf("PutBatch with one of three members down: %v", err)
	}
	for i, k := range keys {
		v, err := c.Get(ctx, k)
		if err != nil || !bytes.Equal(v, kvs[i].Value) {
			t.Fatalf("Get %s after an acked batch = %q, %v", k, v, err)
		}
	}

	servers[1].Close()
	kvs, _ = testBatch("two-down", 64)
	if err := c.PutBatch(ctx, kvs); err == nil {
		t.Fatal("PutBatch acked 64 keys with two of three members down: some key has both replicas on them")
	}
}

// rendezvousNet makes the first frame sent to each of `want` remotes
// wait until all of them have one in flight, once armed: requests that
// go out one after another never meet.
type rendezvousNet struct {
	transport.Network
	mu      sync.Mutex
	armed   bool
	want    int
	waiting map[transport.Addr]bool
	all     chan struct{}
	missed  bool
}

func (n *rendezvousNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.Network.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return &rendezvousConn{Conn: c, net: n}, nil
}

type rendezvousConn struct {
	transport.Conn
	net *rendezvousNet
}

func (c *rendezvousConn) Send(frame []byte) error {
	n := c.net
	n.mu.Lock()
	if n.armed && !n.waiting[c.RemoteAddr()] {
		n.waiting[c.RemoteAddr()] = true
		if len(n.waiting) == n.want {
			close(n.all)
		}
		n.mu.Unlock()
		select {
		case <-n.all:
		case <-time.After(5 * time.Second):
			n.mu.Lock()
			n.missed = true
			n.mu.Unlock()
		}
	} else {
		n.mu.Unlock()
	}
	return c.Conn.Send(frame)
}

// TestGetBatchAsksMembersConcurrently: every level of a tree descent is
// one GetBatch, so its per-member calls must overlap, not queue.
func TestGetBatchAsksMembersConcurrently(t *testing.T) {
	net := &rendezvousNet{Network: transport.NewMemNet(), want: 3, waiting: map[transport.Addr]bool{}, all: make(chan struct{})}
	c, _ := testClusterOn(t, net, 3, 2)
	ctx := context.Background()
	kvs, keys := testBatch("level", 64) // enough keys that each member is primary for some
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	net.armed = true
	net.mu.Unlock()
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got[i], kvs[i].Value) {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, got[i], kvs[i].Value)
		}
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.missed || len(net.waiting) != 3 {
		t.Errorf("GetBatch never had requests to all 3 members in flight at once (%d members asked, a request waited out the rendezvous: %v)", len(net.waiting), net.missed)
	}
}

// TestGetBatchFallsBackToReplicas: a key its primary cannot answer for
// is still found on its other replica.
func TestGetBatchFallsBackToReplicas(t *testing.T) {
	c, servers := testCluster(t, 3, 2)
	ctx := context.Background()
	kvs, keys := testBatch("fallback", 64)
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	servers[2].Close()
	got, err := c.GetBatch(ctx, append(keys, "absent"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got[i], kvs[i].Value) {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, got[i], kvs[i].Value)
		}
	}
	if got[len(keys)] != nil {
		t.Errorf("absent key = %q, want nil", got[len(keys)])
	}
}

// TestProviderSlabLifetime: a provider keeps a put batch as one key
// slab and one value slab. Deleting entries must account for exactly
// the entries deleted, the survivors must stay intact while later
// batches recycle the frames they arrived in, and deleting the last
// entry leaves nothing behind.
func TestProviderSlabLifetime(t *testing.T) {
	c, servers := testCluster(t, 1, 1)
	s := servers[0]
	ctx := context.Background()
	kvs, keys := testBatch("slab", 32)
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	const survivor = 17
	doomed := append(append([]string(nil), keys[:survivor]...), keys[survivor+1:]...)
	if err := c.DeleteBatch(ctx, doomed); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ { // same-sized batches reuse the released frames
		later, laterKeys := testBatch(fmt.Sprintf("later%d", round), 32)
		if err := c.PutBatch(ctx, later); err != nil {
			t.Fatal(err)
		}
		if err := c.DeleteBatch(ctx, laterKeys); err != nil {
			t.Fatal(err)
		}
	}
	var stats StatsResp
	if err := c.pool.Call(ctx, s.Addr(), MethodStats, nil, &stats); err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(kvs[survivor].Value)); stats.Entries != 1 || stats.Bytes != want {
		t.Errorf("stats = %+v, want the survivor alone: 1 entry, %d bytes", stats, want)
	}
	if v, err := c.Get(ctx, keys[survivor]); err != nil || !bytes.Equal(v, kvs[survivor].Value) {
		t.Errorf("survivor reads back %q, %v; want %q", v, err, kvs[survivor].Value)
	}
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if (v != nil) != (i == survivor) {
			t.Errorf("key %d after the delete: %q", i, v)
		}
	}
	if err := c.DeleteBatch(ctx, keys[survivor:survivor+1]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d after the last entry was deleted", s.Len())
	}
}

// TestPutBatchAllocationBudget: a put batch costs a fixed number of
// objects per message, not one per key, end to end: the client's
// fanOut and its owner and share table, a goroutine for each extra
// member, and each provider's one key copy and one value copy — 10 for
// three members. It measures PutEntries, the metadata layer's commit
// path; PutBatch adds its two KV-splitting slices.
func TestPutBatchAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	c, _ := testCluster(t, 3, 2)
	ctx := context.Background()
	type round struct {
		keys   []string
		values [][]byte
	}
	rounds := make([]round, 64) // a bounded key set: the providers' maps reach a steady state
	for i := range rounds {
		kvs, keys := testBatch(fmt.Sprintf("round%d", i), 8)
		rounds[i].keys = keys
		for _, kv := range kvs {
			rounds[i].values = append(rounds[i].values, kv.Value)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i = (i + 1) % len(rounds)
		if err := c.PutEntries(ctx, rounds[i].keys, rounds[i].values); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PutEntries of 8 keys: %.0f allocs", allocs)
	if allocs > 10 {
		t.Errorf("PutEntries of 8 keys allocates %.0f objects end to end, budget 10", allocs)
	}
}

// entry is one decoded put-batch entry.
type entry struct {
	key   string
	value []byte
}

// decodeEntries runs the provider's put-batch decode over frame and
// collects what it stores.
func decodeEntries(frame []byte) ([]entry, error) {
	var got []entry
	b, err := decodePutBatch(wire.NewReader(frame))
	b.each(func(k string, v []byte) { got = append(got, entry{k, v}) })
	return got, err
}

// encodeEntries encodes es as a put batch the way the client does: one
// member's share of a fanOut that sends every key to that member.
func encodeEntries(t *testing.T, es []entry) []byte {
	f := &fanOut{keys: []string{}, values: [][]byte{}, r: 1}
	mc := &memberCall{f: f}
	for i, e := range es {
		f.keys = append(f.keys, e.key)
		f.values = append(f.values, e.value)
		mc.share = append(mc.share, i)
	}
	b := wire.Marshal(mc)
	if len(b) != mc.EncodedSize() {
		t.Fatalf("put: EncodedSize() = %d, AppendTo wrote %d bytes", mc.EncodedSize(), len(b))
	}
	f.values = nil // the same keys as a get
	if get := wire.Marshal(mc); len(get) > mc.EncodedSize() {
		t.Fatalf("get: EncodedSize() = %d, AppendTo wrote %d bytes", mc.EncodedSize(), len(get))
	}
	return b
}

func entriesEqual(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !bytes.Equal(a[i].value, b[i].value) {
			return false
		}
	}
	return true
}

// FuzzBatchReqDecode: the provider's put-batch decoder sees bytes off
// the wire. Whatever they are it must not panic; what it decodes must
// not alias the frame (the frame is recycled under it); and the
// client's encoding of what it decoded must decode to the same batch.
func FuzzBatchReqDecode(f *testing.F) {
	kvs, keys := testBatch("seed", 3)
	f.Add(wire.AppendStringSlice(wire.AppendStringSlice(nil, keys), []string{string(kvs[0].Value), "", string(kvs[2].Value)}))
	f.Add(wire.AppendUvarint(wire.AppendStringSlice(nil, keys), 0))
	f.Add([]byte{0, 0})
	// The malformed seeds are in testdata/fuzz.
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(nil), data...)
		got, err := decodeEntries(frame)
		if err != nil {
			return
		}
		before := make([]entry, len(got))
		for i, e := range got {
			before[i] = entry{strings.Clone(e.key), bytes.Clone(e.value)}
			if cap(e.value) != len(e.value) {
				t.Fatalf("value %d: cap %d beyond len %d reaches into its neighbour", i, cap(e.value), len(e.value))
			}
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		if !entriesEqual(got, before) {
			t.Fatal("a decoded batch changed when its frame was overwritten")
		}
		again, err := decodeEntries(encodeEntries(t, got))
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if !entriesEqual(got, again) {
			t.Fatalf("decode(encode(x)) = %q, want %q", again, got)
		}
	})
}
