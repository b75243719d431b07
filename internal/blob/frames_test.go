package blob

import (
	"bytes"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

// Every test of this package runs with released rpc frames overwritten
// with 0xDB, so a page that still aliases a recycled frame fails its
// content check instead of passing by luck.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

// TestPutFailureWithReplicas: with two replicas per page and one
// provider refusing puts, every page is sent twice from the caller's
// own buffer (aligned appends are not copied) and lands intact on the
// healthy replica; the failed put's recycled request frame must not
// leak into the retry.
func TestPutFailureWithReplicas(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, ClientPolicy: ClientPolicy{PageReplicas: 2}})
	cl := newTestClient(t, c, "cli")
	const ps = 4 << 10
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	c.Providers[1].SetFailPuts(true)
	var want []byte
	var last WriteResult
	for i := 0; i < 6; i++ {
		data := pattern(byte(i+1), ps*5)
		want = append(want, data...)
		if last, err = b.Append(ctx, data); err != nil {
			t.Fatalf("append %d with one failing replica: %v", i, err)
		}
		if !bytes.Equal(data, pattern(byte(i+1), ps*5)) {
			t.Fatalf("append %d modified the caller's buffer", i)
		}
	}
	if _, err := b.WaitPublished(ctx, last.Ver); err != nil {
		t.Fatal(err)
	}
	if n := c.Providers[1].Store().Len(); n != 0 {
		t.Fatalf("failing provider stored %d pages", n)
	}
	got, err := b.ReadAt(ctx, last.Ver, 0, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after puts failed on one replica")
	}
	// With every replica failing the append fails, and says why.
	for _, p := range c.Providers {
		p.SetFailPuts(true)
	}
	if _, err := b.Append(ctx, pattern(9, ps)); err == nil {
		t.Fatal("append succeeded with every provider refusing puts")
	}
}

// TestPageFramesOverTCP: on a socket transport a request frame is
// released by the sender after the write and received into a pooled
// frame; pages must survive both, through the cache and around it.
func TestPageFramesOverTCP(t *testing.T) {
	c, err := NewCluster(transport.NewTCPNet(), ClusterConfig{Providers: 3, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client("tcp-cli")
	defer cl.Close()
	const ps = 64 << 10
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 2, 4
	var wg sync.WaitGroup
	var lastVer atomic.Uint64
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				res, err := b.Append(ctx, pattern(byte(g*each+i+1), 2*ps))
				if err != nil {
					t.Error(err)
					return
				}
				for {
					v := lastVer.Load()
					if res.Ver <= v || lastVer.CompareAndSwap(v, res.Ver) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	info, err := b.WaitPublished(ctx, lastVer.Load())
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != appenders*each*2*ps {
		t.Fatalf("size %d after %d appends", info.Size, appenders*each)
	}
	// Twice: the second pass is served from cached response frames.
	for pass := 0; pass < 2; pass++ {
		got, err := b.ReadAt(ctx, info.Ver, 0, info.Size)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[byte]bool{}
		for off := 0; off < len(got); off += 2 * ps {
			chunk := got[off : off+2*ps]
			tag := byte(0)
			for tg := 1; tg <= appenders*each; tg++ {
				if bytes.Equal(chunk, pattern(byte(tg), 2*ps)) {
					tag = byte(tg)
				}
			}
			if tag == 0 || seen[tag] {
				t.Fatalf("pass %d: chunk at %d is no append's payload (or a repeat)", pass, off)
			}
			seen[tag] = true
		}
	}
}

// TestSharedHistoryUnderConcurrentAppends: mergeHistory hands out the
// cached history itself. A writer that got its view early keeps
// reading it while two others append through the same client; the
// race detector must stay silent and the view must not change.
func TestSharedHistoryUnderConcurrentAppends(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	const ps = 512
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Append(ctx, pattern(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	// The holder: assigned, history in hand, data path not yet run.
	held := pattern(99, ps)
	a, history, alloc, err := b.assign(ctx, KindAppend, 0, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 10 || cap(history) != 10 {
		t.Fatalf("history len %d cap %d for version %d", len(history), cap(history), a.Ver)
	}
	snapshot := append([]segtree.WriteRecord(nil), history...)

	const appenders, each = 2, 150
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			for i, rec := range history {
				if rec != snapshot[i] {
					t.Errorf("held history slot %d changed: %+v", i, rec)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for g := 0; g < appenders; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				if _, err := b.Append(ctx, pattern(byte(g), ps)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// The holder finishes last, against the view it took first.
	if err := b.finishWrite(ctx, a, history, payload{held}, alloc); err != nil {
		t.Fatal(err)
	}
	info, err := b.WaitPublished(ctx, 10+1+appenders*each)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, info.Ver, 10*ps, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, held) {
		t.Fatal("the holder's page is not what it wrote")
	}
}

// TestHistorySlotsAreWriteOnce: a delta that arrives out of order and
// overlaps what is cached must not store into filled slots — an
// earlier caller may be reading them without the lock.
func TestHistorySlotsAreWriteOnce(t *testing.T) {
	cl := NewClient(ClientConfig{Net: transport.NewMemNet(), Host: "cli"})
	defer cl.Close()
	rec := func(ver uint64) segtree.WriteRecord {
		return segtree.WriteRecord{Ver: ver, Off: ver - 1, N: 1, PagesAfter: ver}
	}
	first, err := cl.mergeHistory(7, []segtree.WriteRecord{rec(1), rec(2), rec(3)}, rec(4))
	if err != nil {
		t.Fatal(err)
	}
	// A slower assignment's delta: versions 2..5 again, this time with
	// contents that would be visible if they were stored.
	var late []segtree.WriteRecord
	for v := uint64(2); v <= 5; v++ {
		r := rec(v)
		r.N = 1000
		late = append(late, r)
	}
	second, err := cl.mergeHistory(7, late, rec(6))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if r != rec(uint64(i+1)) {
			t.Errorf("slot %d rewritten through an earlier view: %+v", i, r)
		}
	}
	if len(second) != 5 || second[3] != rec(4) || second[4].N != 1000 {
		t.Errorf("second view = %+v", second)
	}
	// An append never writes through a view either: cap is clipped.
	if cap(first) != len(first) {
		t.Errorf("history view has spare capacity %d", cap(first)-len(first))
	}
	// A gap is still an error, not a short view.
	if _, err := cl.mergeHistory(8, []segtree.WriteRecord{rec(1)}, rec(4)); err == nil {
		t.Error("history with a gap accepted")
	}
}

// TestPageListAppend: AppendAsync takes its payload as a list of page
// buffers. Onto a page-aligned BLOB each page goes out of the buffer it
// came in; onto an unaligned one the list is assembled behind the
// previous version's tail in the one copy an unaligned write always
// made. Either way the BLOB reads back byte-exact after the caller has
// reused (here: poisoned) its buffers, and a list with a partial page
// anywhere but at its end is refused before a version is assigned.
func TestPageListAppend(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	const ps, tail = 512, 100
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for round := byte(0); round < 2; round++ { // aligned, then onto the 100-byte tail
		pages := [][]byte{pattern(round*4+1, ps), pattern(round*4+2, ps), pattern(round*4+3, ps), pattern(round*4+4, tail)}
		for _, p := range pages {
			want = append(want, p...)
		}
		pw, err := b.AppendAsync(ctx, pages)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pw.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ver != uint64(round)+1 || res.SizeAfter != uint64(len(want)) {
			t.Fatalf("append %d = version %d, size %d; want one version and size %d", round, res.Ver, res.SizeAfter, len(want))
		}
		for _, p := range pages {
			transport.Poison(p)
		}
	}
	if _, err := b.AppendAsync(ctx, [][]byte{pattern(9, tail), pattern(9, ps)}); err == nil {
		t.Error("a list with a partial page before its end was accepted")
	}
	info, err := b.WaitPublished(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if latest, err := b.Latest(ctx); err != nil || latest.Ver != 2 {
		t.Fatalf("latest = %+v, %v; the refused list must not have taken a version", latest, err)
	}
	got, err := b.ReadAt(ctx, info.Ver, 0, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page-list appends read back wrong")
	}
}
