package blob

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
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
