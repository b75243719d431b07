package blob

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// TestFailoverConcurrentAppends drives concurrent appenders across all
// shards while one shard is killed mid-workload and taken over ~100ms
// later. Built to run under -race: the kill/restart races against live
// routed calls on every writer. Every writer's appends must be acked as
// its BLOB's versions 1..8 and read back byte-identical afterwards —
// the router's retry plus journal replay means a mid-flight failover
// costs latency, never data and never a version.
func TestFailoverConcurrentAppends(t *testing.T) {
	const (
		shards   = 3
		writers  = 9
		appends  = 8
		payload  = 256
		pageSize = 1024
	)
	net := transport.NewMemNet()
	cluster, err := NewCluster(net, ClusterConfig{
		Providers:  4,
		VMShards:   shards,
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	type acked struct {
		ver  uint64
		seed uint64
	}
	blobs := make([]*Blob, writers)
	clients := make([]*Client, writers)
	ackedBy := make([][]acked, writers)
	for i := range blobs {
		cl := cluster.Client(fmt.Sprintf("failover-cli-%d", i))
		defer cl.Close()
		clients[i] = cl
		bl, err := cl.Create(ctx, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = bl
	}

	// Victim: the shard owning writer 0's blob, so at least one writer
	// is guaranteed to append straight through its own shard's outage.
	victimAddr := clients[0].VMRouter().Shard(blobs[0].ID())
	victim := -1
	for i, addr := range cluster.VMAddrs() {
		if addr == victimAddr {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("no shard owns blob %d", blobs[0].ID())
	}

	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bl := blobs[w]
			data := make([]byte, payload)
			for k := 0; k < appends; k++ {
				seed := uint64(w*1000 + k)
				pagestore.Fill(data, seed)
				res, err := bl.Append(ctx, data)
				if err != nil {
					t.Errorf("writer %d append %d: %v", w, k, err)
					return
				}
				ackedBy[w] = append(ackedBy[w], acked{ver: res.Ver, seed: seed})
			}
		}(i)
	}

	// Let the workload get going, then crash the victim shard and bring
	// the standby up from its journal while appends are in flight.
	time.Sleep(10 * time.Millisecond)
	if err := cluster.KillVM(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := cluster.RestartVM(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Each writer appends alone to its own BLOB, so its acked versions
	// are exactly 1..appends: a gap is a retried assign that was given a
	// second version behind an orphan of the first.
	for w, acks := range ackedBy {
		for k, a := range acks {
			if a.ver != uint64(k+1) {
				t.Fatalf("writer %d: append %d acked as v%d, want v%d", w, k, a.ver, k+1)
			}
		}
	}

	// Every acknowledged append reads back byte-identical through a
	// fresh client (no warm caches hiding lost metadata).
	verifier := cluster.Client("failover-verify")
	defer verifier.Close()
	want := make([]byte, payload)
	for w, bl := range blobs {
		fresh := verifier.Handle(bl.ID(), bl.PageSize())
		for _, a := range ackedBy[w] {
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if _, err := fresh.WaitPublished(wctx, a.ver); err != nil {
				cancel()
				t.Fatalf("writer %d v%d never published after failover: %v", w, a.ver, err)
			}
			cancel()
			got, err := fresh.ReadAt(ctx, a.ver, (a.ver-1)*payload, payload)
			if err != nil {
				t.Fatalf("writer %d v%d: read acked append: %v", w, a.ver, err)
			}
			pagestore.Fill(want, a.seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("writer %d v%d: acked append corrupted after failover", w, a.ver)
			}
		}
	}
}

// TestLostCompleteAckIsRetried: the shard's answer to a writer's
// vm.Complete is lost after the shard journaled the completion, and the
// shard is killed and taken over from its journal. The router retries
// the Complete, the replayed shard answers it as already done, and so
// the append is acked once, as version 1, which publishes and reads
// back byte for byte.
func TestLostCompleteAckIsRetried(t *testing.T) {
	testLostAckIsRetried(t, VMComplete)
}

// TestLostAssignAckIsRetried is TestLostCompleteAckIsRetried with the
// answer to the writer's vm.Assign lost instead. The replayed shard
// holds the assign as a pending version 1; the router's retry carries
// the same writer id, kind, offset and length, so the shard answers it
// with version 1 again instead of assigning version 2 behind an orphan
// that nobody completes.
func TestLostAssignAckIsRetried(t *testing.T) {
	testLostAckIsRetried(t, VMAssign)
}

// testLostAckIsRetried fails the shard's answer to the writer's first
// call of method, after the shard journaled the call, then kills the
// shard and takes it over from its journal. The append must be acked
// once, as version 1, which publishes and reads back byte for byte.
func testLostAckIsRetried(t *testing.T, method rpc.Method) {
	var call atomic.Uint64 // the rpc call id of the writer's first call of method
	var lost atomic.Bool
	dropped := make(chan struct{})
	net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, frame []byte) error {
		r := wire.NewReader(frame)
		kind, id := r.Uvarint(), r.Uvarint() // an rpc frame's header; a request's method follows
		switch {
		case c.LocalAddr().Host() == "writer" && c.RemoteAddr().Service() == SvcVersionManager &&
			kind == 1 && r.Uvarint() == uint64(method.ID):
			call.CompareAndSwap(0, id)
		case c.RemoteAddr().Host() == "writer" && c.LocalAddr().Service() == SvcVersionManager &&
			id == call.Load() && lost.CompareAndSwap(false, true):
			close(dropped)
			return transport.ErrClosed
		}
		return nil
	})
	cluster, err := NewCluster(net, ClusterConfig{Providers: 2, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	const ps = 512
	bl, err := newTestClient(t, cluster, "writer").Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1, ps)
	type ack struct {
		res WriteResult
		err error
	}
	acked := make(chan ack, 1)
	go func() {
		res, err := bl.Append(ctx, data)
		acked <- ack{res, err}
	}()
	<-dropped
	if err := cluster.KillVM(0); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RestartVM(0); err != nil {
		t.Fatal(err)
	}
	if a := <-acked; a.err != nil || a.res.Ver != 1 {
		t.Fatalf("append whose %s ack was lost = v%d, %v; want v1 acked", method.Name, a.res.Ver, a.err)
	}
	fresh := newTestClient(t, cluster, "fresh").Handle(bl.ID(), ps)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := fresh.WaitPublished(wctx, 1); err != nil {
		t.Fatalf("v1 never published: %v", err)
	}
	if info, err := fresh.Latest(ctx); err != nil || info.Ver != 1 {
		t.Errorf("latest = v%d, %v; want v1: the retried %s acked the append once", info.Ver, err, method.Name)
	}
	readExact(t, fresh, 1, 0, data)
}

// TestLeaseSealsOrphanAfterRestart: a version assigned before its shard
// crashed, whose writer is gone, is pending again after the replay and
// its lease starts over there: the restarted shard seals it one lease
// after the restart, never before, and the version behind it publishes.
func TestLeaseSealsOrphanAfterRestart(t *testing.T) {
	const lease = 300 * time.Millisecond
	cluster, err := NewCluster(transport.NewMemNet(), ClusterConfig{Providers: 2, JournalDir: t.TempDir(), lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cl := newTestClient(t, cluster, "writer")
	bl, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	var orphan AssignResp
	if err := cl.pool.Call(ctx, cluster.VMs[0].Addr(), VMAssign,
		&AssignReq{Blob: bl.ID(), Kind: KindAppend, Len: 256}, &orphan); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillVM(0); err != nil {
		t.Fatal(err)
	}
	restarted := time.Now()
	if err := cluster.RestartVM(0); err != nil {
		t.Fatal(err)
	}
	next, err := bl.Append(ctx, pattern(2, 256))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := bl.WaitPublished(wctx, next.Ver); err != nil {
		t.Fatalf("v%d behind the orphan v%d never published: %v", next.Ver, orphan.Ver, err)
	}
	if waited := time.Since(restarted); waited < lease {
		t.Errorf("the orphan was sealed %v after the restart, within one lease (%v)", waited, lease)
	}
	if info, err := bl.GetVersion(ctx, orphan.Ver); err != nil || !info.Sealed {
		t.Fatalf("orphan v%d = %+v, %v; want sealed", orphan.Ver, info, err)
	}
}
