package blob

import (
	"bytes"
	"context"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
)

// pmAllocCalls reads the process-wide count of client-side pm.Alloc
// calls; no test of this package runs in parallel with another.
func pmAllocCalls() uint64 {
	return metrics.Default.RPCClient.Snapshot()[PMAlloc.Name].Calls
}

// pagesPerProvider counts the pages each data provider stores.
func pagesPerProvider(c *Cluster) []uint64 {
	out := make([]uint64, len(c.Providers))
	for i, p := range c.Providers {
		out[i] = uint64(p.Store().Len())
	}
	return out
}

// heldStrategy is a placement strategy a test can stop inside the
// provider manager: while hold is set, Pick signals entered and waits
// for release.
type heldStrategy struct {
	RoundRobin
	hold             bool
	entered, release chan struct{}
}

func (s *heldStrategy) Pick(nPages, replicas int, providers []string, loads []uint64) []int {
	if s.hold { // read under the provider manager's lock, as next is
		s.hold = false
		close(s.entered)
		<-s.release
	}
	return s.RoundRobin.Pick(nPages, replicas, providers, loads)
}

// TestLeaseUnderConcurrentAppends: eight writers share one client's
// placement lease. Every row the provider manager granted is either
// stored under exactly one page or still held, the manager hears from
// the client once per lease and not once per append, every byte reads
// back, and a Close that finds a refill in flight waits it out.
func TestLeaseUnderConcurrentAppends(t *testing.T) {
	strategy := &heldStrategy{entered: make(chan struct{}), release: make(chan struct{})}
	c := newTestCluster(t, ClusterConfig{Strategy: strategy})
	cl := c.Client("cli")
	defer cl.Close()
	const ps, writers, each = 512, 8, 64
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	before := pmAllocCalls()
	starts := make([][each]uint64, writers)
	var lastVer [writers]uint64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pending []*PendingWrite
			for i := 0; i < each; i++ {
				pw, err := b.AppendAsync(ctx, [][]byte{pattern(byte(g*each+i), ps)})
				if err != nil {
					t.Error(err)
					return
				}
				pending = append(pending, pw)
			}
			for i, pw := range pending {
				res, err := pw.Wait(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				starts[g][i], lastVer[g] = res.Start, res.Ver
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const pages = writers * each
	calls := pmAllocCalls() - before
	t.Logf("%d pm.Alloc calls for %d one-page appends", calls, pages)
	if calls > pages/32+2 {
		t.Errorf("%d pm.Alloc calls for %d one-page appends, want at most %d", calls, pages, pages/32+2)
	}

	// Conservation, provider by provider: granted = stored + still held.
	// A row handed to two pages would store one page too many.
	cl.lease.refills.Wait() // let a grant in flight land first
	cl.lease.mu.Lock()
	held := make(map[string]uint64)
	for _, addr := range cl.lease.rows {
		held[addr]++
	}
	cl.lease.mu.Unlock()
	stored := pagesPerProvider(c)
	c.PM.mu.Lock()
	granted := append([]uint64(nil), c.PM.loads...)
	c.PM.mu.Unlock()
	var total uint64
	for i, p := range c.Providers {
		total += stored[i]
		if stored[i]+held[string(p.Addr())] != granted[i] {
			t.Errorf("provider %d: %d pages stored and %d rows held of %d granted", i, stored[i], held[string(p.Addr())], granted[i])
		}
	}
	if total != pages {
		t.Errorf("%d pages stored, want %d", total, pages)
	}

	info, err := b.WaitPublished(ctx, slices.Max(lastVer[:]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, info.Ver, 0, pages*ps)
	if err != nil {
		t.Fatal(err)
	}
	for g := range starts {
		for i, off := range starts[g] {
			if !bytes.Equal(got[off:off+ps], pattern(byte(g*each+i), ps)) {
				t.Fatalf("writer %d's append %d read back wrong at offset %d", g, i, off)
			}
		}
	}

	// Drain the lease to the refill mark with the manager stopped inside
	// the refill's Alloc, then Close: it must fail that call, wait for the
	// goroutine and leave nothing in flight.
	c.PM.mu.Lock()
	strategy.hold = true
	c.PM.mu.Unlock()
	for {
		if _, err := cl.allocPages(ctx, 1); err != nil {
			t.Fatal(err)
		}
		cl.lease.mu.Lock()
		refilling := cl.lease.refilling
		cl.lease.mu.Unlock()
		if refilling {
			break
		}
	}
	<-strategy.entered
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	cl.lease.mu.Lock()
	if cl.lease.refilling {
		t.Error("Close returned with the lease refill still in flight")
	}
	cl.lease.mu.Unlock()
	close(strategy.release)
}

// TestLeaseOutlivesProviderManager: a client needs the provider manager
// once per lease, so with the manager gone appends succeed for as long
// as the rows last; then they fail with the allocation error, promptly
// and with their version sealed, and succeed again once a manager
// listens at the address.
func TestLeaseOutlivesProviderManager(t *testing.T) {
	defer slog.SetLogLoggerLevel(slog.SetLogLoggerLevel(slog.LevelError)) // every failed background refill warns
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	const ps = 512
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var last WriteResult
	appendOne := func() (err error) {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		data := pattern(byte(len(want)/ps), ps)
		if last, err = b.Append(dctx, data); err != nil {
			return err
		}
		want = append(want, data...)
		return nil
	}
	if err := appendOne(); err != nil { // the cold write takes the lease
		t.Fatal(err)
	}
	pmAddr := c.PM.Addr()
	c.PM.Close()
	acked := 0
	for err = appendOne(); err == nil; err = appendOne() {
		if acked++; acked > 2*leasePages {
			t.Fatal("appends keep succeeding with no provider manager and no rows left")
		}
	}
	if acked != leasePages {
		t.Errorf("%d appends succeeded after the provider manager closed, want the lease's %d", acked, leasePages)
	}
	if !strings.Contains(err.Error(), "blob: alloc") {
		t.Errorf("the append that found the lease empty failed with %q, want the allocation error", err)
	}
	want = append(want, make([]byte, ps)...) // its version is sealed: a hole

	pm, err := NewProviderManager(c.Net, pmAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.PM = pm // closed with the cluster
	for _, p := range c.Providers {
		pm.Register(string(p.Addr()))
	}
	if err := appendOne(); err != nil {
		t.Fatalf("append with a provider manager back at the address: %v", err)
	}
	// The failed append's version was sealed, so the one after it
	// publishes, and every acked append is where it was acked.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	info, err := b.WaitPublished(wctx, last.Ver)
	if err != nil {
		t.Fatalf("the version behind the failed append did not publish: %v", err)
	}
	got, err := b.ReadAt(ctx, info.Ver, 0, info.Size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%d bytes read back, not the acked appends around a %d-byte hole", len(got), ps)
	}
}

// TestLeasedPlacementStaysBalanced: four clients, each drawing on a
// lease of its own, still spread their pages evenly under round-robin.
func TestLeasedPlacementStaysBalanced(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 8})
	const ps, clients, each = 512, 4, 256
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		cl := newTestClient(t, c, "cli-"+string(rune('a'+g)))
		b, err := cl.Create(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := pattern(7, ps)
			for i := 0; i < each; i++ {
				if _, err := b.Append(ctx, data); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stored := pagesPerProvider(c)
	var most, total uint64
	for _, n := range stored {
		most, total = max(most, n), total+n
	}
	if total != clients*each {
		t.Fatalf("%d pages stored, want %d", total, clients*each)
	}
	mean := float64(total) / float64(len(stored))
	t.Logf("pages per provider %v: max/mean = %.3f", stored, float64(most)/mean)
	if float64(most)/mean > 1.05 {
		t.Errorf("pages per provider %v: max/mean = %.3f, want at most 1.05", stored, float64(most)/mean)
	}
}

// TestLeastLoadedSpreadsACall: the strategy and the manager count load
// in one unit, pages, so a provider that is a page behind receives a
// page, not the whole of the next call.
func TestLeastLoadedSpreadsACall(t *testing.T) {
	net := transport.NewMemNet()
	pm, err := NewProviderManager(net, transport.MakeAddr("pm-host", SvcProviderManager), &LeastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	const providers = 8
	for i := 0; i < providers; i++ {
		pm.Register(string(transport.MakeAddr("node-"+string(rune('0'+i)), SvcProvider)))
	}
	pool := rpc.NewPool(net, transport.MakeAddr("cli", "client"))
	defer pool.Close()
	pages := make(map[string]int)
	for _, n := range []uint64{7, 64} {
		var resp AllocResp
		if err := pool.Call(ctx, pm.Addr(), PMAlloc, &AllocReq{NPages: n, Replicas: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		if uint64(len(resp.Providers)) != n {
			t.Fatalf("%d providers for %d pages", len(resp.Providers), n)
		}
		for _, addr := range resp.Providers {
			pages[addr]++
		}
	}
	for addr, n := range pages {
		if n > 10 {
			t.Errorf("%s holds %d of 71 pages, want at most 10: %v", addr, n, pages)
		}
	}
}

// TestHugeAllocIsRefused: an alloc whose page count no placement slice
// can hold is answered with an error, not a panic on the manager's
// dispatch worker that would take every in-process service down with
// it, and the manager goes on serving.
func TestHugeAllocIsRefused(t *testing.T) {
	net := transport.NewMemNet()
	pm, err := NewProviderManager(net, transport.MakeAddr("pm-host", SvcProviderManager), NewRandomK(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	for i := 0; i < 4; i++ {
		pm.Register(string(transport.MakeAddr("node-"+string(rune('0'+i)), SvcProvider)))
	}
	pool := rpc.NewPool(net, transport.MakeAddr("cli", "client"))
	defer pool.Close()
	for _, req := range []AllocReq{
		{NPages: 1 << 62, Replicas: 1},
		{NPages: maxAllocPages + 1, Replicas: 4},
		{NPages: 1 << 62, Replicas: 1 << 62},
	} {
		if err := pool.Call(ctx, pm.Addr(), PMAlloc, &req, &AllocResp{}); err == nil {
			t.Errorf("alloc of %d pages of %d replicas succeeded", req.NPages, req.Replicas)
		}
	}
	var resp AllocResp
	if err := pool.Call(ctx, pm.Addr(), PMAlloc, &AllocReq{NPages: leasePages, Replicas: 2}, &resp); err != nil {
		t.Fatalf("a lease after the refused allocs: %v", err)
	}
	if len(resp.Providers) != 2*leasePages {
		t.Fatalf("%d providers for %d pages of 2 replicas", len(resp.Providers), leasePages)
	}
}
