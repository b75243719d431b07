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
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// TestFailoverConcurrentAppends drives concurrent appenders across all
// shards while one shard is killed mid-workload and taken over ~100ms
// later. Built to run under -race: the kill/restart races against live
// routed calls on every writer. Every acknowledged append must read
// back byte-identical afterwards — the router's retry plus journal
// replay means a mid-flight failover costs latency, never data.
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
//
// The same test with the answer to vm.Assign dropped is the failover
// wedge's test (ROADMAP item 1), and it wedges at this commit: the
// retried Assign is acked as version 2, and version 2 never publishes
// behind the orphan pending version 1.
func TestLostCompleteAckIsRetried(t *testing.T) {
	var complete atomic.Uint64 // the rpc call id of the writer's first vm.Complete
	var lost atomic.Bool
	dropped := make(chan struct{})
	net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, frame []byte) error {
		r := wire.NewReader(frame)
		kind, id := r.Uvarint(), r.Uvarint() // an rpc frame's header; a request's method follows
		switch {
		case c.LocalAddr().Host() == "writer" && c.RemoteAddr().Service() == SvcVersionManager &&
			kind == 1 && r.Uvarint() == uint64(VMComplete.ID):
			complete.CompareAndSwap(0, id)
		case c.RemoteAddr().Host() == "writer" && c.LocalAddr().Service() == SvcVersionManager &&
			id == complete.Load() && lost.CompareAndSwap(false, true):
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
		t.Fatalf("append whose complete ack was lost = v%d, %v; want v1 acked", a.res.Ver, a.err)
	}
	fresh := newTestClient(t, cluster, "fresh").Handle(bl.ID(), ps)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := fresh.WaitPublished(wctx, 1); err != nil {
		t.Fatalf("v1 never published: %v", err)
	}
	if info, err := fresh.Latest(ctx); err != nil || info.Ver != 1 {
		t.Errorf("latest = v%d, %v; want v1: the retried Complete acked the append once", info.Ver, err)
	}
	readExact(t, fresh, 1, 0, data)
}
