package dht

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/metrics"
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
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatalf("GetBatch after an acked batch: %v", err)
	}
	for i, k := range keys {
		if !bytes.Equal(got[i], kvs[i].Value) {
			t.Fatalf("%s after an acked batch = %q", k, got[i])
		}
	}

	servers[1].Close()
	kvs, _ = testBatch("two-down", 64)
	if err := c.PutBatch(ctx, kvs); err == nil {
		t.Fatal("PutBatch acked 64 keys with two of three members down: some key has both replicas on them")
	}
}

// TestGetBatchAsksMembersConcurrently: every level of a tree descent is
// one GetBatch, so its per-member calls must overlap, not queue.
func TestGetBatchAsksMembersConcurrently(t *testing.T) {
	// Once armed, the first request to each of the 3 members waits
	// until all of them have one in flight: requests that go out one
	// after another never meet.
	var mu sync.Mutex
	var armed, missed bool
	waiting, all := map[transport.Addr]bool{}, make(chan struct{})
	net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, _ []byte) error {
		mu.Lock()
		if !armed || c.LocalAddr() != "client/dht" || waiting[c.RemoteAddr()] {
			mu.Unlock()
			return nil
		}
		waiting[c.RemoteAddr()] = true
		if len(waiting) == 3 {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			mu.Lock()
			missed = true
			mu.Unlock()
		}
		return nil
	})
	c, _ := testClusterOn(t, net, 3, 2)
	ctx := context.Background()
	kvs, keys := testBatch("level", 64) // enough keys that each member is primary for some
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got[i], kvs[i].Value) {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, got[i], kvs[i].Value)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if missed || len(waiting) != 3 {
		t.Errorf("GetBatch never had requests to all 3 members in flight at once (%d members asked, a request waited out the rendezvous: %v)", len(waiting), missed)
	}
}

// TestGetBatchFallsBackToReplicas: the keys a dead primary held are
// asked of their other replicas in one more batch round, a call per
// live member, not a get per key and replica. A key no replica has
// stays nil; a key whose every replica is dead fails the batch.
func TestGetBatchFallsBackToReplicas(t *testing.T) {
	c, servers := testCluster(t, 3, 2)
	ctx := context.Background()
	kvs, keys := testBatch("fallback", 100)
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	servers[2].Close()
	metaCalls := func() (n uint64) {
		for name, m := range metrics.Default.RPCClient.Snapshot() {
			if strings.HasPrefix(name, "meta.") {
				n += m.Calls
			}
		}
		return n
	}
	before := metaCalls()
	got, err := c.GetBatch(ctx, append(keys, "absent")) // "absent" has no replica on the dead member
	if err != nil {
		t.Fatal(err)
	}
	if calls := metaCalls() - before; calls > 5 {
		t.Errorf("GetBatch with a dead primary made %d metadata calls, want at most 5: a round to the 3 primaries, one to the 2 live members", calls)
	}
	for i := range keys {
		if !bytes.Equal(got[i], kvs[i].Value) {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, got[i], kvs[i].Value)
		}
	}
	if got[len(keys)] != nil {
		t.Errorf("absent key = %q, want nil", got[len(keys)])
	}

	servers[1].Close()
	var live, stranded []string
	for _, k := range keys {
		if slices.Contains(replicas(c.ring, k, 2), servers[0].Addr()) {
			live = append(live, k)
		} else {
			stranded = append(stranded, k)
		}
	}
	if got, err := c.GetBatch(ctx, live); err != nil || slices.ContainsFunc(got, func(v []byte) bool { return v == nil }) {
		t.Errorf("GetBatch of the %d keys with a replica on the live member: %v", len(live), err)
	}
	if _, err := c.GetBatch(ctx, stranded[:1]); err == nil {
		t.Errorf("GetBatch of %q, whose every replica is dead, succeeded", stranded[0])
	}
}

// TestProviderSlabLifetime: a provider keeps a put batch as one key
// slab and one value slab. Deleting entries must drop exactly the
// entries deleted, the survivors must stay intact while later
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
	if n := s.Len(); n != 1 {
		t.Errorf("Len() = %d, want the survivor alone", n)
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
	if !bytes.Equal(got[survivor], kvs[survivor].Value) {
		t.Errorf("survivor reads back %q, want %q", got[survivor], kvs[survivor].Value)
	}
	if err := c.DeleteBatch(ctx, keys[survivor:survivor+1]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d after the last entry was deleted", s.Len())
	}
}

// TestGetBatchValuesOutliveTheirFrames: a get answer's values belong to
// the caller. One GetBatch result is held while many more gets and puts
// recycle the frames its answers arrived in, each overwritten on
// release: every held value must still read as it was stored.
func TestGetBatchValuesOutliveTheirFrames(t *testing.T) {
	c, _ := testCluster(t, 3, 2)
	ctx := context.Background()
	kvs, keys := testBatch("held", 16)
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	held, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		more, moreKeys := testBatch(fmt.Sprintf("churn%d", i%8), 16)
		if err := c.PutBatch(ctx, more); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetBatch(ctx, moreKeys); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetBatch(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}
	for i, kv := range kvs {
		if !bytes.Equal(held[i], kv.Value) {
			t.Fatalf("held value %d = %q, want %q", i, held[i], kv.Value)
		}
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

// FuzzGetAnswerDecode: a get answer is bytes off the wire, decoded
// straight into the fanOut's slots. The first byte picks which of
// eight positions (four keys, two replicas each) the member was asked
// for; the rest is its answer. Whatever it is, the decoder must not
// panic, must refuse a count that is not its share's, and may write a
// value only at a position of its share: the one the answer gave it.
func FuzzGetAnswerDecode(f *testing.F) {
	answer := func(share byte, vals ...string) []byte {
		b := wire.AppendUvarint([]byte{share}, uint64(len(vals)))
		for _, v := range vals {
			b = wire.AppendBool(b, v != "")
			b = wire.AppendString(b, v)
		}
		return b
	}
	f.Add(answer(0b10000110, "one", "", "seven"))
	f.Add(answer(0b00000001, "zero"))
	f.Add(answer(0, ""))
	// The malformed seeds are in testdata/fuzz.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fo := &fanOut{keys: []string{"a", "b", "c", "d"}, r: 2, out: make([][]byte, 8)}
		mc := &memberCall{f: fo}
		for p := range fo.out {
			if data[0]&(1<<p) != 0 {
				mc.share = append(mc.share, p)
			}
		}
		err := mc.DecodeFrom(wire.NewReader(data[1:]))
		want := make([][]byte, len(fo.out))
		r := wire.NewReader(data[1:])
		n := r.Uvarint()
		if err == nil && n != uint64(len(mc.share)) {
			t.Fatalf("accepted %d answers for a share of %d", n, len(mc.share))
		}
		for _, p := range mc.share {
			if found, v := r.Bool(), r.Bytes(); found && r.Err() == nil && n == uint64(len(mc.share)) {
				want[p] = v
			}
		}
		for p, v := range fo.out {
			if !bytes.Equal(v, want[p]) || (v == nil) != (want[p] == nil) {
				t.Fatalf("position %d holds %q, want %q (share %v, error %v)", p, v, want[p], mc.share, err)
			}
		}
	})
}
