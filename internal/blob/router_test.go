package blob

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

func routerShards(n int) []transport.Addr {
	shards := make([]transport.Addr, n)
	for i := range shards {
		shards[i] = transport.MakeAddr(VMShardHost(i), SvcVersionManager)
	}
	return shards
}

// TestRouterMappingStable pins the property everything else builds on:
// blob→shard is a pure function of (blob id, shard set). Two routers
// built independently — different pools, different seeds — must agree
// on every blob, or a GC collector and the client that created a blob
// would look for its versions on different shards.
func TestRouterMappingStable(t *testing.T) {
	net := transport.NewMemNet()
	shards := routerShards(4)
	a := NewVMRouter(rpc.NewPool(net, transport.MakeAddr("host-a", "client")), shards, "host-a")
	b := NewVMRouter(rpc.NewPool(net, transport.MakeAddr("host-b", "client")), shards, "host-b")

	counts := map[transport.Addr]int{}
	for blob := uint64(1); blob <= 4096; blob++ {
		sa, sb := a.Shard(blob), b.Shard(blob)
		if sa != sb {
			t.Fatalf("blob %d: router a says %s, router b says %s", blob, sa, sb)
		}
		counts[sa]++
	}
	// The ring should spread ownership roughly evenly; with 64 vnodes
	// per shard a 4x imbalance would mean the ring is broken.
	for _, addr := range shards {
		if counts[addr] < 4096/16 {
			t.Fatalf("shard %s owns only %d of 4096 blobs: %v", addr, counts[addr], counts)
		}
	}
}

// TestRouterShardAllocatesNothing: every version-manager call routes
// through Shard, so it renders the ring key on the stack and asks the
// ring for one owner — and still answers the ring's primary for
// "blob/<id>", the mapping the shards stripe their ids by.
func TestRouterShardAllocatesNothing(t *testing.T) {
	shards := routerShards(2)
	r := NewVMRouter(rpc.NewPool(transport.NewMemNet(), transport.MakeAddr("alloc-host", "client")), shards, "alloc-host")
	ring := dht.NewRing(shards, vmRingVnodes)
	for blob := uint64(0); blob < 1024; blob++ {
		if got, want := r.Shard(blob), ring.Primary("blob/"+strconv.FormatUint(blob, 10)); got != want {
			t.Fatalf("blob %d: Shard = %s, ring lookup = %s", blob, got, want)
		}
	}
	blob := uint64(1) << 40
	if n := testing.AllocsPerRun(1000, func() { blob++; r.Shard(blob) }); n != 0 {
		t.Errorf("Shard allocates %.2f objects per call, want 0", n)
	}
}

// TestRouterCreateTargetSpreads checks both halves of the creation
// policy: one router cycles through all shards round-robin, and
// distinct clients (distinct seeds) start the cycle at different
// shards, so a fleet of one-create clients does not dogpile shard 0.
func TestRouterCreateTargetSpreads(t *testing.T) {
	net := transport.NewMemNet()
	shards := routerShards(4)
	pool := rpc.NewPool(net, transport.MakeAddr("spread-host", "client"))

	one := NewVMRouter(pool, shards, "spread-host")
	seen := map[transport.Addr]int{}
	for i := 0; i < len(shards); i++ {
		seen[one.CreateTarget()]++
	}
	for _, addr := range shards {
		if seen[addr] != 1 {
			t.Fatalf("one full round-robin cycle hit %v, want each shard once", seen)
		}
	}

	firsts := map[transport.Addr]bool{}
	for i := 0; i < 64; i++ {
		r := NewVMRouter(pool, shards, VMShardHost(0)+"-client-"+string(rune('a'+i%26))+string(rune('a'+i/26)))
		firsts[r.CreateTarget()] = true
	}
	if len(firsts) < len(shards) {
		t.Fatalf("64 fresh clients' first creations only reached shards %v", firsts)
	}
}

// TestRouterRetriesUntilListener is the failover contract from the
// caller's side: a call to a shard address with no listener (killed,
// standby still replaying) keeps retrying and succeeds once the
// takeover binds — no error surfaces to the caller.
func TestRouterRetriesUntilListener(t *testing.T) {
	net := transport.NewMemNet()
	addr := transport.MakeAddr("takeover-host", SvcVersionManager)
	pool := rpc.NewPool(net, transport.MakeAddr("takeover-cli", "client"))
	defer pool.Close()
	r := NewVMRouter(pool, []transport.Addr{addr}, "takeover-cli")

	var vm atomic.Pointer[VersionManager]
	go func() {
		time.Sleep(80 * time.Millisecond)
		m, err := NewVersionManager(net, addr, VersionManagerConfig{Nodes: segtree.NewMemStore()})
		if err != nil {
			t.Error(err)
			return
		}
		vm.Store(m)
	}()

	start := time.Now()
	var resp CreateBlobResp
	if err := r.CallAddr(ctx, addr, VMCreateBlob, &CreateBlobReq{PageSize: 128}, &resp); err != nil {
		t.Fatalf("call through delayed takeover: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("call returned in %v, before the listener was bound", elapsed)
	}
	if m := vm.Load(); m != nil {
		m.Close()
	}
}
