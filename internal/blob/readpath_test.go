package blob

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"blobseer/internal/dht"
	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
)

// TestReadAtHolesInterleavedWithData checks reads spanning holes next
// to written pages: holes must read as zeros even into a dirty caller
// buffer, and the written pages must come back intact.
func TestReadAtHolesInterleavedWithData(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	head := pattern(1, 64)
	tail := pattern(2, 64)
	if _, err := b.WriteAt(ctx, head, 0); err != nil {
		t.Fatal(err)
	}
	// Pages 1 and 2 are never written: a hole between two data pages.
	res, err := b.WriteAt(ctx, tail, 192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 256)
	copy(want, head)
	copy(want[192:], tail)

	got, err := b.ReadAt(ctx, res.Ver, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("full-range read over holes mismatched")
	}

	// ReadAtInto must clear hole bytes in a dirty buffer.
	dirty := bytes.Repeat([]byte{0xFF}, 256)
	if _, err := b.ReadAtInto(ctx, res.Ver, 0, dirty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dirty, want) {
		t.Error("ReadAtInto left dirty bytes in a hole")
	}

	// A read landing entirely inside the hole.
	got, err = b.ReadAt(ctx, res.Ver, 80, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("hole-only read returned non-zero bytes")
	}

	// A read crossing the data->hole and hole->data boundaries.
	got, err = b.ReadAt(ctx, res.Ver, 32, 192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[32:224]) {
		t.Error("boundary-crossing read mismatched")
	}
}

// TestReadAtShortPage forces a provider to hold fewer bytes than the
// version's size implies and checks the read fails with ErrShortPage
// instead of returning truncated or padded data.
func TestReadAtShortPage(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Append(ctx, pattern(3, 128))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	locs, err := b.PageLocations(ctx, res.Ver, 0, 128)
	if err != nil || len(locs) != 1 {
		t.Fatalf("PageLocations = %v, %v", locs, err)
	}
	// Re-put the page truncated on every replica (providers accept
	// idempotent re-puts, so this models a corrupted/truncated store).
	key := pagestore.Key{Blob: b.ID(), Version: res.Ver, Index: 0}
	for _, addr := range locs[0].Providers {
		err := cl.pool.Call(ctx, transport.Addr(addr), ProvPutPage,
			&PutPageReq{Key: key, Data: pattern(3, 16)}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.ReadAt(ctx, res.Ver, 0, 128); !errors.Is(err, ErrShortPage) {
		t.Fatalf("err = %v, want ErrShortPage", err)
	}
	// A read inside the surviving prefix still works.
	got, err := b.ReadAt(ctx, res.Ver, 0, 16)
	if err != nil || !bytes.Equal(got, pattern(3, 16)) {
		t.Fatalf("prefix read = %v, %v", got, err)
	}
}

// TestShortReplicaFailsOver truncates the page on ONE of two replicas:
// reads must fail over to the healthy copy instead of erroring or
// caching the truncated bytes. Short replies are not branded provider
// failures (a legitimately short page answers that way from every
// healthy replica), so the failure stats stay clean.
func TestShortReplicaFailsOver(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, ClientPolicy: ClientPolicy{PageReplicas: 2}})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(14, 128)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	locs, err := b.PageLocations(ctx, res.Ver, 0, 128)
	if err != nil || len(locs) != 1 || len(locs[0].Providers) != 2 {
		t.Fatalf("locations = %+v, %v", locs, err)
	}
	bad := locs[0].Providers[0]
	key := pagestore.Key{Blob: b.ID(), Version: res.Ver, Index: 0}
	if err := cl.pool.Call(ctx, transport.Addr(bad), ProvPutPage,
		&PutPageReq{Key: key, Data: data[:16]}, nil); err != nil {
		t.Fatal(err)
	}
	// Whatever replica the rotation starts at, every full read must
	// succeed with the healthy copy (and the shared cache must only
	// ever hold the full page).
	for i := 0; i < 10; i++ {
		got, err := b.ReadAt(ctx, res.Ver, 0, 128)
		if err != nil {
			t.Fatalf("read %d = %v, want failover to healthy replica", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d returned truncated/altered data", i)
		}
	}
	if snap := cl.ReadStats().Snapshot(); snap.ProviderFailures != 0 {
		t.Errorf("failures = %d, want 0 (short reply is not a provider failure)", snap.ProviderFailures)
	}
}

// TestReadSpansVersionSizeBoundary exercises reads that end exactly at
// a version's size, reads past it, and reads of an old version after
// the BLOB has grown.
func TestReadSpansVersionSizeBoundary(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	first := pattern(4, 100) // pages 0-1, page 1 short (36 bytes)
	second := pattern(5, 100)
	r1, err := b.Append(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Append(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, r2.Ver); err != nil {
		t.Fatal(err)
	}

	// Ending exactly at v1's size, starting mid-page.
	got, err := b.ReadAt(ctx, r1.Ver, 90, 10)
	if err != nil || !bytes.Equal(got, first[90:]) {
		t.Fatalf("boundary read = %v, %v", got, err)
	}
	// One byte past v1's size fails even though v2 has the data.
	if _, err := b.ReadAt(ctx, r1.Ver, 90, 11); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := b.ReadAt(ctx, r1.Ver, 100, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	// The same range on v2 crosses the old boundary (page 1 was
	// boundary-merged under v2) and must stitch both writes together.
	got, err = b.ReadAt(ctx, r2.Ver, 90, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), first[90:]...), second[:10]...)
	if !bytes.Equal(got, want) {
		t.Error("cross-version-boundary read mismatched")
	}
	// Ending exactly at v2's size.
	got, err = b.ReadAt(ctx, r2.Ver, 150, 50)
	if err != nil || !bytes.Equal(got, second[50:]) {
		t.Fatalf("v2 tail read = %v, %v", got, err)
	}
}

// TestPageView checks the zero-copy whole-page view: trimming at the
// version size, zeroed holes, and out-of-range errors.
func TestPageView(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(6, 100)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	full, err := b.PageView(ctx, res.Ver, 0)
	if err != nil || !bytes.Equal(full.Data, data[:64]) {
		t.Fatalf("page 0 = %d bytes, %v", len(full.Data), err)
	}
	full.Release()
	short, err := b.PageView(ctx, res.Ver, 1)
	if err != nil || !bytes.Equal(short.Data, data[64:]) {
		t.Fatalf("tail page = %d bytes, %v (want 36)", len(short.Data), err)
	}
	short.Release()
	if _, err := b.PageView(ctx, res.Ver, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}

	// A hole page views as zeros.
	hole, err := b.WriteAt(ctx, pattern(7, 64), 192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, hole.Ver); err != nil {
		t.Fatal(err)
	}
	hv, err := b.PageView(ctx, hole.Ver, 2)
	if err != nil || !bytes.Equal(hv.Data, make([]byte, 64)) {
		t.Fatalf("hole page = %v, %v", hv.Data, err)
	}
	hv.Release()
}

// TestCacheHitReReadIssuesNoProviderRPCs is the acceptance check for
// the shared page cache: re-reading a version the cache already holds
// must not touch a provider at all.
func TestCacheHitReReadIssuesNoProviderRPCs(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(8, 64*8)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}

	got, err := b.ReadAt(ctx, res.Ver, 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read failed: %v", err)
	}
	cold := cl.ReadStats().Snapshot()
	if cold.Misses != 8 || cold.ProviderFetches != 8 {
		t.Fatalf("cold read: misses=%d fetches=%d, want 8/8", cold.Misses, cold.ProviderFetches)
	}

	got, err = b.ReadAt(ctx, res.Ver, 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read failed: %v", err)
	}
	warm := cl.ReadStats().Snapshot()
	if d := warm.ProviderFetches - cold.ProviderFetches; d != 0 {
		t.Errorf("warm re-read issued %d provider RPCs, want 0", d)
	}
	if d := warm.Misses - cold.Misses; d != 0 {
		t.Errorf("warm re-read missed %d times, want 0", d)
	}
	if d := warm.Hits - cold.Hits; d != 8 {
		t.Errorf("warm re-read hit %d times, want 8", d)
	}
}

// TestConcurrentReadersShareCache hammers one client's cache from many
// goroutines on a cold file: singleflight must collapse all concurrent
// fetches of a page into one provider RPC (the -race CI job runs this
// as the integration-level race check).
func TestConcurrentReadersShareCache(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	data := pattern(9, 64*pages)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}

	const readers = 12
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Readers start at different offsets so fetch order varies.
			off := uint64((i % pages) * 64)
			n := uint64(len(data)) - off
			got, err := b.ReadAt(ctx, res.Ver, off, n)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data[off:]) {
				t.Errorf("reader %d mismatched", i)
			}
		}(i)
	}
	wg.Wait()
	snap := cl.ReadStats().Snapshot()
	if snap.ProviderFetches != pages {
		t.Errorf("provider fetches = %d, want %d (one per page)", snap.ProviderFetches, pages)
	}
	if snap.Misses != pages {
		t.Errorf("misses = %d, want %d", snap.Misses, pages)
	}
	if snap.ProviderFailures != 0 {
		t.Errorf("provider failures = %d, want 0", snap.ProviderFailures)
	}
}

// TestReplicaRotationFailsOver kills one replica of a 2-replica page
// and checks that (a) every read still succeeds via the survivor, and
// (b) the rotation spreads fetch starts across replicas, so only some
// reads pay the failover hop — with the old primary-first policy every
// read would start at the same replica. The failed fetches must land
// in the read stats: one for each read that started at the dead one.
func TestReplicaRotationFailsOver(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, ClientPolicy: ClientPolicy{PageReplicas: 2}})
	// Cache disabled so every read hits the provider path.
	cc := c.ClientConfig("cli")
	cc.CacheBytes = -1
	cl := NewClient(cc)
	defer cl.Close()
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(10, 64)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	locs, err := b.PageLocations(ctx, res.Ver, 0, 64)
	if err != nil || len(locs) != 1 || len(locs[0].Providers) != 2 {
		t.Fatalf("locations = %+v, %v", locs, err)
	}
	dead := locs[0].Providers[0]
	for _, p := range c.Providers {
		if string(p.Addr()) == dead {
			p.Close()
		}
	}

	const reads = 20
	for i := 0; i < reads; i++ {
		got, err := b.ReadAt(ctx, res.Ver, 0, 64)
		if err != nil {
			t.Fatalf("read %d failed after replica death: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d mismatched", i)
		}
	}
	snap := cl.ReadStats().Snapshot()
	if snap.ProviderFailures != reads/2 {
		t.Errorf("failures = %d of %d reads, want %d: the rotation alternates between the dead and the live replica", snap.ProviderFailures, reads, reads/2)
	}
	if snap.ProviderFetches != reads+snap.ProviderFailures {
		t.Errorf("fetches = %d, want %d successes + %d failures",
			snap.ProviderFetches, reads, snap.ProviderFailures)
	}
}

// TestLocalReplicaPreferred co-locates the client with one replica and
// kills the other: if fetches start at the local copy (as data-local
// map tasks rely on), no read ever touches the dead remote, so zero
// failures are recorded.
func TestLocalReplicaPreferred(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, ClientPolicy: ClientPolicy{PageReplicas: 2}})
	setup := newTestClient(t, c, "setup-host")
	b, err := setup.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(13, 64)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	locs, err := b.PageLocations(ctx, res.Ver, 0, 64)
	if err != nil || len(locs) != 1 || len(locs[0].Hosts) != 2 {
		t.Fatalf("locations = %+v, %v", locs, err)
	}
	localHost, remote := locs[0].Hosts[1], locs[0].Providers[0]
	for _, p := range c.Providers {
		if string(p.Addr()) == remote {
			p.Close()
		}
	}

	// A cache-less client on the surviving replica's host: every fetch
	// must be served locally, never noticing the dead remote.
	cc := c.ClientConfig(localHost)
	cc.CacheBytes = -1
	cl := NewClient(cc)
	defer cl.Close()
	lb := cl.Handle(b.ID(), 64)
	const reads = 10
	for i := 0; i < reads; i++ {
		got, err := lb.ReadAt(ctx, res.Ver, 0, 64)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d = %v", i, err)
		}
	}
	snap := cl.ReadStats().Snapshot()
	if snap.ProviderFailures != 0 {
		t.Errorf("failures = %d, want 0 (local replica first)", snap.ProviderFailures)
	}
	if snap.ProviderFetches != reads {
		t.Errorf("fetches = %d, want %d", snap.ProviderFetches, reads)
	}
}

// TestClientCacheDisabled covers the CacheBytes<0 escape hatch: reads
// work, nothing is cached, every read pays a provider RPC.
func TestClientCacheDisabled(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{ClientPolicy: ClientPolicy{CacheBytes: -1}})
	cl := newTestClient(t, c, "cli")
	if cl.PageCache() != nil {
		t.Fatal("cache present despite CacheBytes < 0")
	}
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(11, 64)
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := b.ReadAt(ctx, res.Ver, 0, 64)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d = %v", i, err)
		}
	}
	if snap := cl.ReadStats().Snapshot(); snap.ProviderFetches != 3 {
		t.Errorf("fetches = %d, want 3 (no caching)", snap.ProviderFetches)
	}
}

// TestVersionInfoCached checks that resolving a published version twice
// costs one version-manager RPC: the second resolve must not fail even
// if the version manager has become unreachable.
func TestVersionInfoCached(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Append(ctx, pattern(12, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(ctx, res.Ver, 0, 64); err != nil {
		t.Fatal(err)
	}
	c.VMs[0].Close()
	// Version metadata is immutable once published; the re-read must
	// be served from the local version-info cache (and page cache).
	got, err := b.ReadAt(ctx, res.Ver, 0, 64)
	if err != nil {
		t.Fatalf("re-read after VM death: %v", err)
	}
	if !bytes.Equal(got, pattern(12, 64)) {
		t.Error("re-read mismatched")
	}
	// Latest (ver 0) genuinely needs the version manager.
	if _, err := b.ReadAt(ctx, 0, 0, 64); err == nil {
		t.Error("latest-version read succeeded without a version manager")
	}
}

// getBatches is how many meta.GetBatch calls the process's clients have
// made so far.
func getBatches() uint64 {
	return metrics.Default.RPCClient.Snapshot()[dht.MethodGetBatch.Name].Calls
}

// TestFreshVersionCostsOneNodeFetch is reading by address as a count. A
// client that has read a file reads a version somebody else just
// appended: a page the append did not write is named by an older leaf it
// holds, so it costs no metadata fetch, and the page the append wrote
// costs one, its leaf. A client that has read nothing also pays one
// fetch, where a descent paid one a tree level (9 here).
func TestFreshVersionCostsOneNodeFetch(t *testing.T) {
	const ps, pages = 64, 200 // a root of span 256: 9 levels
	c := newTestCluster(t, ClusterConfig{})
	a, b, cold := newTestClient(t, c, "a"), newTestClient(t, c, "b"), newTestClient(t, c, "c")
	ba, err := a.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(21, ps*pages)
	res, err := ba.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	if got, err := ba.ReadAt(ctx, res.Ver, 0, ps*pages); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of the preload: %v", err)
	}
	bb := b.Handle(ba.ID(), ps)
	res, err = bb.Append(ctx, pattern(22, ps))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bb.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}

	data = append(data, pattern(22, ps)...)

	readPage := func(bl *Blob, page uint64) (fetches uint64) {
		t.Helper()
		before := getBatches()
		got, err := bl.ReadAt(ctx, res.Ver, page*ps, ps)
		if err != nil || !bytes.Equal(got, data[page*ps:(page+1)*ps]) {
			t.Fatalf("page %d of version %d: %v", page, res.Ver, err)
		}
		return getBatches() - before
	}
	if got := readPage(ba, 5); got != 0 {
		t.Errorf("a page the fresh version did not write cost %d metadata fetches, want 0", got)
	}
	if n := a.NodeStore().Holds(ba.ID(), res.Ver); n != 0 {
		t.Errorf("reading a page the fresh version did not write brought %d of its nodes into the cache, want 0", n)
	}
	if got := readPage(ba, pages); got != 1 {
		t.Errorf("the page the fresh version wrote cost %d metadata fetches, want 1: its leaf", got)
	}
	if got := readPage(cold.Handle(ba.ID(), ps), 5); got != 1 {
		t.Errorf("the page cost a cold client %d metadata fetches, want 1: its leaf", got)
	}
}

// TestPinnedColdReadIsOneLeafBatch: a client that holds nothing of a
// 4096-page BLOB opens a snapshot with one version-manager call, the
// pin, whose reply carries the write records; a page of it then costs
// one batched leaf get and one provider get, and no version-manager
// call, where a descent paid a get a tree level (13 here).
func TestPinnedColdReadIsOneLeafBatch(t *testing.T) {
	const ps, pages, appends = 64, 4096, 4
	c := newTestCluster(t, ClusterConfig{})
	w, cold := newTestClient(t, c, "writer"), newTestClient(t, c, "cold")
	bw, err := w.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(31, ps*pages)
	var ver uint64
	for i := 0; i < appends; i++ {
		part := data[i*len(data)/appends : (i+1)*len(data)/appends]
		res, err := bw.Append(ctx, part)
		if err != nil {
			t.Fatal(err)
		}
		ver = res.Ver
	}
	if _, err := bw.WaitPublished(ctx, ver); err != nil {
		t.Fatal(err)
	}
	calls := func(methods ...rpc.Method) (n uint64) {
		snap := metrics.Default.RPCClient.Snapshot()
		for _, m := range methods {
			n += snap[m.Name].Calls
		}
		return n
	}
	vmCalls := func() uint64 {
		return calls(VMOpenBlob, VMGetVersion, VMLatest, VMWaitPublished, VMPin, VMUnpin, VMHistory)
	}

	before := vmCalls()
	s, err := cold.Handle(bw.ID(), ps).At(ctx, ver)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := vmCalls() - before; got != 1 {
		t.Errorf("At(%d) made %d version-manager calls, want 1: the pin", ver, got)
	}
	const page = 3000
	vm, leaves, gets := vmCalls(), getBatches(), calls(ProvGetPage)
	got, err := s.ReadAt(ctx, page*ps, ps)
	if err != nil || !bytes.Equal(got, data[page*ps:(page+1)*ps]) {
		t.Fatalf("page %d of version %d: %v", page, ver, err)
	}
	if n := vmCalls() - vm; n != 0 {
		t.Errorf("the cold page made %d version-manager calls, want 0: the pin brought the records", n)
	}
	if n := getBatches() - leaves; n != 1 {
		t.Errorf("the cold page made %d meta.GetBatch calls, want 1: its leaf", n)
	}
	if n := calls(ProvGetPage) - gets; n != 1 {
		t.Errorf("the cold page made %d provider gets, want 1", n)
	}
}

// TestNodeCacheUnderConcurrentReads runs readers, prefetches and purges
// against one client while another appends (meaningful under -race):
// every read of a published version returns that version's bytes.
func TestNodeCacheUnderConcurrentReads(t *testing.T) {
	const ps, versions, readers = 64, 40, 4
	c := newTestCluster(t, ClusterConfig{})
	w, r := newTestClient(t, c, "writer"), newTestClient(t, c, "reader")
	bw, err := w.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	br := r.Handle(bw.ID(), ps)
	data := pattern(23, ps*4*versions)
	published := make(chan uint64, versions) // sized to the number of sends
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ver := range published {
				size := ver * 4 * ps
				off := uint64(g) * ps * (ver % 5) % size
				if err := br.Prefetch(ctx, ver, off, size-off); err != nil {
					t.Errorf("prefetch of version %d: %v", ver, err)
				}
				got, err := br.ReadAt(ctx, ver, off, size-off)
				if err != nil || !bytes.Equal(got, data[off:size]) {
					t.Errorf("version %d from byte %d: %v", ver, off, err)
				}
				r.PurgeVersion(bw.ID(), ver-uint64(g)%ver)
			}
		}(g)
	}
	for v := 0; v < versions; v++ {
		res, err := bw.Append(ctx, data[v*4*ps:(v+1)*4*ps])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bw.WaitPublished(ctx, res.Ver); err != nil {
			t.Fatal(err)
		}
		published <- res.Ver
	}
	close(published)
	wg.Wait()
}
