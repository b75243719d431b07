package gc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

var ctx = context.Background()

type harness struct {
	cluster *blob.Cluster
	cl      *blob.Client
	gcCl    *blob.Client // the collector's own
	col     *Collector
}

func newHarness(t *testing.T, cfg blob.ClusterConfig) *harness {
	t.Helper()
	c, err := blob.NewCluster(transport.NewMemNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cl := c.Client("cli")
	t.Cleanup(func() { cl.Close() })
	gcClient := c.Client("gc-host")
	t.Cleanup(func() { gcClient.Close() })
	col := New(gcClient, Options{})
	t.Cleanup(col.Close)
	return &harness{cluster: c, cl: cl, gcCl: gcClient, col: col}
}

func (h *harness) runOnce(t *testing.T) Report {
	t.Helper()
	rep, err := h.col.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// metaNodes sums the entries held by the metadata DHT servers.
func (h *harness) metaNodes() int {
	n := 0
	for _, m := range h.cluster.Metas {
		n += m.Len()
	}
	return n
}

func fill(tag, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(tag*31 + i*7)
	}
	return out
}

// TestRetentionBoundsStorage is the unit-level acceptance check: a
// sustained concurrent-overwrite workload under RetainLatest(2) holds
// provider storage bounded within 2x the steady-state working set,
// while the identical no-GC run grows linearly — and every read of a
// live version stays correct throughout.
func TestRetentionBoundsStorage(t *testing.T) {
	const (
		ps      = uint64(1024)
		writers = 3
		region  = 2 * ps // pages per writer region
		rounds  = 6
	)
	run := func(t *testing.T, withGC bool) int64 {
		h := newHarness(t, blob.ClusterConfig{Providers: 4, MetaProviders: 3})
		bl, err := h.cl.Create(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		if withGC {
			if err := bl.SetRetention(ctx, 2); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, writers*int(region))
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			var mu sync.Mutex
			var firstErr error
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					data := fill(r*writers+w+1, int(region))
					if _, err := bl.WriteAt(ctx, data, uint64(w)*region); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					copy(want[w*int(region):], data)
					mu.Unlock()
				}(w)
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			if withGC {
				h.runOnce(t)
			}
			// A live read must never fail or return wrong bytes, GC or not.
			info, err := bl.Latest(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bl.ReadAt(ctx, info.Ver, 0, uint64(len(want)))
			if err != nil {
				t.Fatalf("round %d: read latest: %v", r, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: latest read returned wrong bytes", r)
			}
		}
		return h.cluster.ProviderBytes()
	}

	var gcBytes, rawBytes int64
	t.Run("retain2", func(t *testing.T) { gcBytes = run(t, true) })
	t.Run("nogc", func(t *testing.T) { rawBytes = run(t, false) })

	working := int64(writers * int(region))
	if gcBytes > 2*working {
		t.Errorf("GC run holds %d bytes, want <= 2x working set %d", gcBytes, working)
	}
	if rawBytes < int64(rounds)*working {
		t.Errorf("no-GC baseline holds %d bytes, expected linear growth >= %d", rawBytes, int64(rounds)*working)
	}
}

// TestDeleteBlobReclaimsEverything: DeleteBlob plus one pass frees all
// pages and all metadata tree nodes, and any further read answers
// ErrVersionCollected.
func TestDeleteBlobReclaimsEverything(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, MetaProviders: 3, ClientPolicy: blob.ClientPolicy{PageReplicas: 2}})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	var lastVer uint64
	for i := 0; i < 5; i++ {
		res, err := bl.Append(ctx, fill(i, int(ps)*2))
		if err != nil {
			t.Fatal(err)
		}
		lastVer = res.Ver
	}
	if _, err := bl.WaitPublished(ctx, lastVer); err != nil {
		t.Fatal(err)
	}
	if h.cluster.ProviderBytes() == 0 || h.metaNodes() == 0 {
		t.Fatal("expected stored pages and metadata before delete")
	}

	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	rep := h.runOnce(t)
	if rep.VersionsCollected == 0 || rep.PagesReclaimed == 0 {
		t.Fatalf("pass reclaimed nothing: %+v", rep)
	}
	if got := h.cluster.ProviderBytes(); got != 0 {
		t.Errorf("provider bytes after delete = %d, want 0", got)
	}
	if got := h.metaNodes(); got != 0 {
		t.Errorf("metadata nodes after delete = %d, want 0", got)
	}

	if _, err := bl.ReadAt(ctx, lastVer, 0, ps); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("read of deleted blob = %v, want ErrVersionCollected", err)
	}
	// A second client with cold caches sees the same clean error.
	cold := h.cluster.Client("cold")
	defer cold.Close()
	if _, err := cold.Handle(bl.ID(), ps).ReadAt(ctx, lastVer, 0, ps); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("cold read of deleted blob = %v, want ErrVersionCollected", err)
	}
}

// TestPinBlocksCollection is the deterministic reader-pin check: a GC
// pass concurrent with a pinned (slow) reader must leave the pinned
// snapshot fully readable; releasing the pin lets the next pass
// collect it.
func TestPinBlocksCollection(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// v1..v4 rewrite the same region, so old versions are reclaimable.
	images := make(map[uint64][]byte)
	var last uint64
	for i := 0; i < 4; i++ {
		data := fill(i+1, int(ps)*2)
		res, err := bl.WriteAt(ctx, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		images[res.Ver] = data
		last = res.Ver
	}
	if _, err := bl.WaitPublished(ctx, last); err != nil {
		t.Fatal(err)
	}

	const pinned = uint64(2)
	snap, err := bl.At(ctx, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.SetRetention(ctx, 1); err != nil {
		t.Fatal(err)
	}

	rep := h.runOnce(t)
	if rep.PinsBlocked == 0 {
		t.Fatalf("expected the pin to block collection, report %+v", rep)
	}
	// The slow read over the to-be-collected version: still perfect.
	got := make([]byte, len(images[pinned]))
	if _, err := snap.ReadAtInto(ctx, 0, got); err != nil {
		t.Fatalf("pinned read failed mid-GC: %v", err)
	}
	if !bytes.Equal(got, images[pinned]) {
		t.Fatal("pinned read returned wrong bytes")
	}
	// Pinning an already collected version is refused cleanly.
	if _, err := bl.At(ctx, 1); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("pin of collected version = %v, want ErrVersionCollected", err)
	}

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	h.runOnce(t)
	h.cl.PurgeVersion(bl.ID(), pinned) // drop warm cache: force re-validation
	if _, err := bl.ReadAt(ctx, pinned, 0, ps); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("read after unpin+collect = %v, want ErrVersionCollected", err)
	}
	// The latest version is always retained and readable.
	got, err = bl.ReadAt(ctx, last, 0, uint64(len(images[last])))
	if err != nil || !bytes.Equal(got, images[last]) {
		t.Fatalf("latest read after collection: err=%v", err)
	}
}

// TestReadAfterDeleteRace hammers reads of a version while another
// goroutine deletes the BLOB and runs collection passes: every read
// must return either the full correct bytes or a clean
// ErrVersionCollected — never short or wrong data. Run under -race.
func TestReadAfterDeleteRace(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 4, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(7, int(ps)*6)
	res, err := bl.Append(ctx, want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Half the readers share the warm client, half run cold, so
			// both the cached and the RPC path face the race.
			cl := h.cl
			if r%2 == 1 {
				cl = h.cluster.Client(fmt.Sprintf("cold-%d", r))
				defer cl.Close()
			}
			b := cl.Handle(bl.ID(), ps)
			for i := 0; i < 200; i++ {
				got, err := b.ReadAt(ctx, res.Ver, 0, uint64(len(want)))
				if err != nil {
					if errors.Is(err, blob.ErrVersionCollected) {
						continue // clean refusal is the contract
					}
					errCh <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("reader %d: wrong bytes", r)
					return
				}
			}
		}(r)
	}
	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.runOnce(t)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := h.cluster.ProviderBytes(); got != 0 {
		t.Errorf("provider bytes after race = %d, want 0", got)
	}
}

// TestTruncateBeforeReclaimsPrefixGarbage: TruncateBefore retires old
// versions; pages still reachable from the surviving suffix stay.
func TestTruncateBeforeReclaimsPrefixGarbage(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// v1 and v2 rewrite page 0; v3 appends page 1. After
	// TruncateBefore(3): v1's page 0 is shadowed by v2 → garbage;
	// v2's page 0 and v3's page 1 are live content.
	if _, err := bl.WriteAt(ctx, fill(1, int(ps)), 0); err != nil {
		t.Fatal(err)
	}
	v2 := fill(2, int(ps))
	if _, err := bl.WriteAt(ctx, v2, 0); err != nil {
		t.Fatal(err)
	}
	v3 := fill(3, int(ps))
	res, err := bl.WriteAt(ctx, v3, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	before := h.cluster.ProviderBytes()
	if err := bl.TruncateBefore(ctx, 3); err != nil {
		t.Fatal(err)
	}
	rep := h.runOnce(t)
	if rep.PagesReclaimed != 1 {
		t.Errorf("pages reclaimed = %d, want exactly v1's shadowed page", rep.PagesReclaimed)
	}
	if got := h.cluster.ProviderBytes(); got != before-int64(ps) {
		t.Errorf("provider bytes = %d, want %d", got, before-int64(ps))
	}
	// The live image reads perfectly through version 3.
	got, err := bl.ReadAt(ctx, res.Ver, 0, 2*ps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:ps], v2) || !bytes.Equal(got[ps:], v3) {
		t.Error("live image corrupted by truncation")
	}
	// v1 is gone; v2 (the version just below the frontier's first
	// survivor... v2 < 3) is collected too even though its page lives
	// on as version 3's visible content.
	if _, err := bl.ReadAt(ctx, 1, 0, ps); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("read of truncated v1 = %v, want ErrVersionCollected", err)
	}
}

// TestCollectorDisabledIsNoOp: a disabled collector leaves garbage in
// place; re-enabling reclaims it.
func TestCollectorDisabledIsNoOp(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bl.Append(ctx, fill(1, int(ps)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	h.col.SetEnabled(false)
	rep := h.runOnce(t)
	if rep.VersionsCollected != 0 || h.cluster.ProviderBytes() == 0 {
		t.Fatalf("disabled collector did work: %+v", rep)
	}
	h.col.SetEnabled(true)
	h.runOnce(t)
	if got := h.cluster.ProviderBytes(); got != 0 {
		t.Errorf("provider bytes after re-enable = %d, want 0", got)
	}
}

// TestStatsAccounting checks a delete-driven pass's report and what it
// adds to the process counters.
func TestStatsAccounting(t *testing.T) {
	const ps = uint64(256)
	h := newHarness(t, blob.ClusterConfig{Providers: 2, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bl.Append(ctx, fill(3, int(ps)*3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Snapshot().Counters
	passesBefore := metrics.Default.Op("gc.pass").Snapshot().Count
	rep := h.runOnce(t)
	if rep.VersionsCollected != 1 || rep.PagesReclaimed != 3 || rep.BytesReclaimed != 3*uint64(ps) {
		t.Errorf("report %+v, want 1 version and 3 pages of %d bytes", rep, ps)
	}
	if rep.NodesDeleted == 0 {
		t.Error("no tree nodes deleted")
	}
	after := metrics.Default.Snapshot().Counters
	for name, want := range map[string]uint64{
		"gc_passes":             1,
		"gc_versions_collected": 1,
		"gc_blobs_deleted":      1,
		"gc_pages_reclaimed":    3,
		"gc_bytes_reclaimed":    3 * ps,
		"gc_nodes_deleted":      uint64(rep.NodesDeleted),
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s grew by %d, want %d", name, got, want)
		}
	}
	// A pass is counted and timed together: the gc.pass histogram grows
	// by the same one pass as gc_passes.
	if got := metrics.Default.Op("gc.pass").Snapshot().Count - passesBefore; got != 1 {
		t.Errorf("gc.pass histogram grew by %d, want 1", got)
	}
}

// TestOwnerMap exercises the aligned-range predecessor index directly:
// writes land at every level, queries answer the latest intersecting
// writer for the exact aligned ranges version trees are built from.
func TestOwnerMap(t *testing.T) {
	recs := []segtree.WriteRecord{
		{Ver: 1, Off: 0, N: 2, PagesAfter: 2},
		{Ver: 2, Off: 2, N: 2, PagesAfter: 4},
		{Ver: 3, Off: 1, N: 2, PagesAfter: 4},
	}
	m := newOwnerMap(recs)
	if got := m.latest(0, 1); got != 0 {
		t.Fatalf("empty map: latest(0,1) = %d, want 0", got)
	}
	m.update(1, recs[0])
	m.update(2, recs[1])
	checks := []struct {
		off, span, want uint64
	}{
		{0, 1, 1}, {1, 1, 1}, {2, 1, 2}, {3, 1, 2},
		{0, 2, 1}, {2, 2, 2}, {0, 4, 2},
	}
	for _, c := range checks {
		if got := m.latest(c.off, c.span); got != c.want {
			t.Errorf("latest(%d,%d) = %d, want %d", c.off, c.span, got, c.want)
		}
	}
	m.update(3, recs[2])
	for _, c := range []struct{ off, span, want uint64 }{
		{0, 1, 1}, {1, 1, 3}, {2, 1, 3}, {3, 1, 2}, {0, 2, 3}, {2, 2, 3}, {0, 4, 3},
	} {
		if got := m.latest(c.off, c.span); got != c.want {
			t.Errorf("after v3: latest(%d,%d) = %d, want %d", c.off, c.span, got, c.want)
		}
	}
}

var _ = pagestore.Key{}

// TestMetadataOutageRequeuesWork: the scan advances frontiers
// irreversibly, so a metadata outage during the reclaim I/O must not
// drop the derived work — it stays queued and retries on later passes
// once the DHT answers again.
func TestMetadataOutageRequeuesWork(t *testing.T) {
	const ps = uint64(512)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, MetaProviders: 3})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bl.Append(ctx, fill(5, int(ps)*3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}

	// Outage: every metadata provider down. The pass must keep the
	// work instead of silently leaking it.
	addrs := make([]string, len(h.cluster.Metas))
	for i, m := range h.cluster.Metas {
		addrs[i] = string(m.Addr())
		m.Close()
	}
	rep := h.runOnce(t)
	if rep.WorkRetries == 0 {
		t.Fatalf("outage pass reported no queued retries: %+v", rep)
	}
	if rep.PagesReclaimed != 0 || h.cluster.ProviderBytes() == 0 {
		t.Fatal("pages were reclaimed without locating them")
	}
	// Still down: the retry fails again and stays queued.
	rep = h.runOnce(t)
	if rep.WorkRetries == 0 {
		t.Fatalf("second outage pass dropped the retry: %+v", rep)
	}

	// Recovery: the DHT comes back (its entries were lost with the
	// in-memory servers, so the pages are unlocatable — counted, not
	// silently dropped — but the retry queue drains).
	for i, addr := range addrs {
		s, err := dht.NewServer(h.cluster.Net, transport.Addr(addr))
		if err != nil {
			t.Fatalf("reopen meta %d: %v", i, err)
		}
		h.cluster.Metas[i] = s
	}
	rep = h.runOnce(t)
	if rep.WorkRetries != 0 {
		t.Fatalf("post-recovery pass still queues retries: %+v", rep)
	}
	if rep.PagesUnlocatable == 0 {
		t.Fatalf("lost leaves were not accounted: %+v", rep)
	}
}

// TestSealedFragmentSurvivesCollection: a failed append that began
// mid-page seals as a hole fragment, and neither the seal nor collecting
// every version behind the latest may cost the bytes earlier versions
// stored in that page — the latest version's chain still names them.
func TestSealedFragmentSurvivesCollection(t *testing.T) {
	h := newHarness(t, blob.ClusterConfig{Providers: 3, Retain: 1})
	bl, err := h.cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	first, third := fill(1, 100), fill(3, 100)
	if _, err := bl.Append(ctx, first); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.cluster.Providers {
		p.SetFailPuts(true)
	}
	if _, err := bl.Append(ctx, fill(2, 100)); !errors.Is(err, blob.ErrPageWrite) {
		t.Fatalf("append with every provider refusing puts: %v", err)
	}
	for _, p := range h.cluster.Providers {
		p.SetFailPuts(false)
	}
	res, err := bl.Append(ctx, third)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WaitPublished(ctx, res.Ver); err != nil { // behind the failed append's seal
		t.Fatal(err)
	}
	if rep := h.runOnce(t); rep.VersionsCollected != 2 {
		t.Fatalf("pass collected %d versions, want 2: %+v", rep.VersionsCollected, rep)
	}
	fresh := h.cluster.Client("fresh")
	defer fresh.Close()
	got, err := fresh.Handle(bl.ID(), 256).ReadAt(ctx, res.Ver, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append(first, make([]byte, 100)...), third...); !bytes.Equal(got, want) {
		t.Error("the latest version lost bytes to the seal or to the collector")
	}
	if _, err := bl.ReadAt(ctx, 1, 0, 100); !errors.Is(err, blob.ErrVersionCollected) {
		t.Errorf("read of collected version 1: %v", err)
	}
}

// mixedWrite is one step of the retention tests' workload: up to 300
// random bytes, one time in three written over existing bytes (growing the
// BLOB at times), else appended. cur is what the BLOB reads as before
// the write; the result is what it reads as after, in a slice of its own.
func mixedWrite(t *testing.T, rng *rand.Rand, bl *blob.Blob, cur []byte) (blob.WriteResult, []byte) {
	t.Helper()
	data := make([]byte, 1+rng.Intn(300))
	rng.Read(data)
	var res blob.WriteResult
	var err error
	if rng.Intn(3) == 0 && len(cur) > 0 {
		off := rng.Intn(len(cur))
		res, err = bl.WriteAt(ctx, data, uint64(off))
		cur = append(cur[:off:off], append(data, cur[min(len(cur), off+len(data)):]...)...)
	} else {
		res, err = bl.Append(ctx, data)
		cur = append(cur[:len(cur):len(cur)], data...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, cur
}

// TestFragmentChainsUnderRetention: mixed unaligned appends and
// overwrites under a three-version retention, a pass every five
// versions. A fragment shadows nothing and a slot prefix shadows the
// whole chain behind it, so after every pass the retained versions read
// exactly through a cold client, and at the end the providers hold the
// pages those versions resolve to and not a byte more.
func TestFragmentChainsUnderRetention(t *testing.T) {
	const ps, versions, retain = 512, 120, 3
	h := newHarness(t, blob.ClusterConfig{Providers: 4})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.SetRetention(ctx, retain); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	contents := make([][]byte, 0, versions) // contents[v-1] is what version v reads as
	var cur []byte
	checkRetained := func(pass int) {
		t.Helper()
		cold := h.cluster.Client(fmt.Sprintf("cold-%d", pass))
		defer cold.Close()
		cb := cold.Handle(bl.ID(), ps)
		for v := len(contents) - retain + 1; v <= len(contents); v++ {
			want := contents[v-1]
			got, err := cb.ReadAt(ctx, uint64(v), 0, uint64(len(want)))
			if err != nil {
				t.Fatalf("pass %d: read retained version %d: %v", pass, v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d: retained version %d reads wrong", pass, v)
			}
		}
	}
	for v := 1; v <= versions; v++ {
		var res blob.WriteResult
		res, cur = mixedWrite(t, rng, bl, cur)
		contents = append(contents, cur)
		if v%5 == 0 {
			if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
				t.Fatal(err)
			}
			h.runOnce(t)
			checkRetained(v / 5)
		}
	}

	// What the retained versions resolve to is everything left.
	live := make(map[pagestore.Key]bool)
	for v := versions - retain + 1; v <= versions; v++ {
		pages := uint64(len(contents[v-1])+ps-1) / ps
		slots, err := segtree.Resolve(ctx, h.cl.NodeStore(), bl.ID(), uint64(v), pages, 0, pages)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range slots {
			if !s.Ref.Hole {
				live[s.Ref.Page] = true
			}
		}
	}
	var liveBytes int64
	for key := range live {
		for _, p := range h.cluster.Providers {
			if page, err := p.Store().Pin(key); err == nil {
				liveBytes += int64(len(page.Bytes()))
				page.Release()
			}
		}
	}
	if stored := h.cluster.ProviderBytes(); stored != liveBytes {
		t.Errorf("providers hold %d bytes, the %d retained versions resolve to %d", stored, retain, liveBytes)
	}
	t.Logf("%d versions, %d bytes in the latest, %d stored == %d live in %d pages", versions, len(cur), h.cluster.ProviderBytes(), liveBytes, len(live))
}

// TestWarmClientAcrossCollection: TestFragmentChainsUnderRetention's
// workload read through one long-lived client whose node cache every
// pass finds warm — it has just read a part of each of the five newest
// versions. After the pass the versions still retained read exactly and
// whole through it, cached nodes and fresh ones together. A collected
// version reads exactly too, while every page it needs outlives it, or
// fails with ErrVersionCollected and nothing else, and the client then
// holds no node that version wrote. The client has no page cache, so a
// reclaimed page cannot hide behind a cached copy.
func TestWarmClientAcrossCollection(t *testing.T) {
	const ps, versions, retain, every = 512, 120, 3, 5
	h := newHarness(t, blob.ClusterConfig{Providers: 4})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.SetRetention(ctx, retain); err != nil {
		t.Fatal(err)
	}
	cc := h.cluster.ClientConfig("warm")
	cc.CacheBytes = -1
	warm := blob.NewClient(cc)
	defer warm.Close()
	wb := warm.Handle(bl.ID(), ps)

	rng := rand.New(rand.NewSource(3))
	contents := make([][]byte, 0, versions) // contents[v-1] is what version v reads as
	var cur []byte
	var refused int
	for v := 1; v <= versions; v++ {
		var res blob.WriteResult
		res, cur = mixedWrite(t, rng, bl, cur)
		contents = append(contents, cur)
		if v%every != 0 {
			continue
		}
		if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
			t.Fatal(err)
		}
		for u := v - every + 1; u <= v; u++ { // warm: the first half of each new version
			want := contents[u-1][:(len(contents[u-1])+1)/2]
			if got, err := wb.ReadAt(ctx, uint64(u), 0, uint64(len(want))); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("before pass %d: version %d: %v", v/every, u, err)
			}
		}
		h.runOnce(t)
		for u := v - every + 1; u <= v; u++ {
			want := contents[u-1]
			got, err := wb.ReadAt(ctx, uint64(u), 0, uint64(len(want)))
			switch {
			case err == nil && bytes.Equal(got, want):
			case u <= v-retain && errors.Is(err, blob.ErrVersionCollected):
				refused++
				if n := warm.NodeStore().Holds(bl.ID(), uint64(u)); n != 0 {
					t.Fatalf("pass %d: the client still holds %d nodes of collected version %d", v/every, n, u)
				}
			default:
				t.Fatalf("pass %d: version %d (latest %d, %d retained) read through the warm client: %v", v/every, u, v, retain, err)
			}
		}
	}
	if refused == 0 {
		t.Error("no read of a collected version was refused: the workload never reclaimed a page such a read needs")
	}
	t.Logf("%d reads of collected versions refused, %d nodes cached at the end", refused, warm.NodeStore().Len())
}

// TestDeleteBlobForgetsNodes: what the collector deletes from the
// metadata store it forgets in its client's node cache — first the nodes
// a pass retires one by one, which may belong to a version collected
// long before, then a deleted BLOB's — and the client that deletes a
// BLOB forgets its nodes on the spot.
func TestDeleteBlobForgetsNodes(t *testing.T) {
	const ps = uint64(256)
	h := newHarness(t, blob.ClusterConfig{Providers: 3, Retain: 1})
	bl, err := h.cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	gb := h.gcCl.Handle(bl.ID(), ps)
	write := func(tag int, page, n uint64) uint64 {
		t.Helper()
		res, err := bl.WriteAt(ctx, fill(tag, int(n*ps)), page*ps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bl.WaitPublished(ctx, res.Ver); err != nil {
			t.Fatal(err)
		}
		return res.Ver
	}
	readBoth := func(ver uint64) {
		t.Helper()
		for _, b := range []*blob.Blob{bl, gb} {
			if _, err := b.ReadAt(ctx, ver, 0, 2*ps); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(1, 0, 2) // version 1: both pages
	write(2, 0, 1) // version 2: page 0 again; page 1 is still version 1's leaf
	h.runOnce(t)   // collects version 1, whose leaf of page 1 lives on
	readBoth(2)
	if n := h.gcCl.NodeStore().Holds(bl.ID(), 1); n != 1 {
		t.Fatalf("the collector's client holds %d nodes of version 1 after reading version 2, want 1: the leaf of page 1", n)
	}
	v3 := write(3, 1, 1) // version 3 shadows that leaf
	h.runOnce(t)         // collects version 2 and deletes the leaf with it
	if n := h.gcCl.NodeStore().Holds(bl.ID(), 1); n != 0 {
		t.Errorf("the collector's client still holds %d nodes of version 1 after deleting its last", n)
	}
	readBoth(v3)

	if h.cl.NodeStore().Len() == 0 || h.gcCl.NodeStore().Len() == 0 {
		t.Fatal("both clients should hold nodes of version 3 by now")
	}
	if err := bl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if n := h.cl.NodeStore().Len(); n != 0 {
		t.Errorf("the deleting client still holds %d nodes of the BLOB", n)
	}
	h.runOnce(t)
	if n := h.gcCl.NodeStore().Len(); n != 0 {
		t.Errorf("the collector's client still holds %d nodes of the deleted BLOB", n)
	}
	if got := h.metaNodes(); got != 0 {
		t.Errorf("metadata nodes after delete = %d, want 0", got)
	}
	for _, b := range []*blob.Blob{bl, gb} {
		if _, err := b.ReadAt(ctx, v3, 0, ps); !errors.Is(err, blob.ErrVersionCollected) {
			t.Errorf("read of the deleted blob = %v, want ErrVersionCollected", err)
		}
	}
}
