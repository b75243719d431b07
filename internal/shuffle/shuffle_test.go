package shuffle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/gc"
	"blobseer/internal/metrics"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

var ctx = context.Background()

// Released frames are overwritten in every test of this package: a
// partition buffer an append still reads after AppendMap returned, or a
// page frame recycled under a fetch, shows up as 0xDB bytes and fails a
// checksum instead of passing by luck.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

func TestBackendString(t *testing.T) {
	if Memory.String() != "memory" || Blob.String() != "blob" {
		t.Errorf("strings = %q, %q", Memory, Blob)
	}
	if Backend(9).String() == "" {
		t.Error("unknown backend renders empty")
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"memory", Memory, true},
		{"blob", Blob, true},
		{"ram", Memory, false},
		{"", Memory, false},
	} {
		got, err := ParseBackend(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestIndexPublishNext drives the index single-threaded through the
// reducer contract: segments arrive in publish order, duplicates are
// dropped whole, and completion needs the map count.
func TestIndexPublishNext(t *testing.T) {
	ix := NewIndex(2)
	if !ix.Publish(0, []Segment{{Map: 0, Part: 0, Len: 1}, {Map: 0, Part: 1, Len: 2}}) {
		t.Fatal("first publish rejected")
	}
	if ix.Publish(0, []Segment{{Map: 0, Part: 0, Len: 99}, {Map: 0, Part: 1, Len: 99}}) {
		t.Fatal("duplicate publish accepted")
	}
	seg, ok, err := ix.Next(ctx, 1, 0)
	if err != nil || !ok || seg.Len != 2 {
		t.Fatalf("Next = %+v, %v, %v", seg, ok, err)
	}
	ix.SetMapCount(1)
	if _, ok, err := ix.Next(ctx, 1, 1); ok || err != nil {
		t.Fatalf("partition not complete after all maps consumed: %v, %v", ok, err)
	}
}

func TestIndexNextHonorsContext(t *testing.T) {
	ix := NewIndex(1)
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, _, err := ix.Next(cctx, 0, 0)
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("Next returned nil error after context cancellation")
	}
}

func TestIndexFailUnblocks(t *testing.T) {
	ix := NewIndex(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := ix.Next(ctx, 0, 0)
		done <- err
	}()
	ix.Fail(fmt.Errorf("boom"))
	if err := <-done; err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

// TestIndexConcurrentPublishNext is the segment-index race test: many
// publishers (including duplicate attempts) against one consumer per
// partition, under -race in CI. Every consumer must see exactly one
// segment per map, in a consistent per-map shape.
func TestIndexConcurrentPublishNext(t *testing.T) {
	const maps, parts = 64, 4
	ix := NewIndex(parts)

	var wg sync.WaitGroup
	for m := 0; m < maps; m++ {
		// Two attempts per map race to publish; exactly one must win.
		for attempt := 0; attempt < 2; attempt++ {
			wg.Add(1)
			go func(m, attempt int) {
				defer wg.Done()
				segs := make([]Segment, parts)
				for p := range segs {
					segs[p] = Segment{Map: uint64(m), Part: uint64(p), Len: uint64(attempt + 1)}
				}
				ix.Publish(uint64(m), segs)
			}(m, attempt)
		}
	}
	go func() {
		wg.Wait()
		ix.SetMapCount(maps)
	}()

	var consumers sync.WaitGroup
	errs := make(chan error, parts)
	for p := 0; p < parts; p++ {
		consumers.Add(1)
		go func(p int) {
			defer consumers.Done()
			seen := make(map[uint64]bool)
			for consumed := 0; ; consumed++ {
				seg, ok, err := ix.Next(ctx, p, consumed)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					if len(seen) != maps {
						errs <- fmt.Errorf("partition %d consumed %d maps, want %d", p, len(seen), maps)
					}
					return
				}
				if seen[seg.Map] {
					errs <- fmt.Errorf("partition %d saw map %d twice", p, seg.Map)
					return
				}
				seen[seg.Map] = true
			}
		}(p)
	}
	consumers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// newTestCluster boots a small real BlobSeer cluster for store tests.
func newTestCluster(t *testing.T) *blob.Cluster {
	t.Helper()
	c, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers: 4, MetaProviders: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// segPayload builds a distinguishable payload for (map, part).
func segPayload(m, p, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(m*31 + p*7 + i)
	}
	return buf
}

// fetch reads seg through c into a buffer of its own.
func fetch(st *Store, c *blob.Client, seg Segment) ([]byte, error) {
	buf := make([]byte, seg.Len)
	return buf, st.Fetch(ctx, c, seg, buf)
}

// TestStoreAppendFetchRoundtrip writes every map's partitions through
// AppendMap and reads them back through Next+Fetch, checking content
// and checksums end to end.
func TestStoreAppendFetchRoundtrip(t *testing.T) {
	const maps, parts, pageSize = 6, 3, 256
	cluster := newTestCluster(t)
	c := cluster.Client("node-000")
	defer c.Close()

	st, err := NewBlobStore(ctx, c, 1, parts, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for m := 0; m < maps; m++ {
		data := make([][]byte, parts)
		for p := range data {
			// Sizes straddle page boundaries: segments lie back to back,
			// unpadded, most of them beginning mid-page.
			data[p] = segPayload(m, p, 100+m*90+p*17)
			stored += int64(len(data[p]))
		}
		if m == 2 {
			stored -= int64(len(data[1]))
			data[1] = nil // an empty partition appends nothing
		}
		if err := st.AppendMap(ctx, c, uint64(m), data); err != nil {
			t.Fatalf("append map %d: %v", m, err)
		}
	}
	st.SetMapCount(maps)
	fetched := metrics.Default.Counter("shuffle_segments_fetched")
	recovered := metrics.Default.Counter("shuffle_segments_recovered")
	fetchedBefore, recoveredBefore := fetched.Load(), recovered.Load()
	if got := cluster.ProviderBytes(); got != stored {
		t.Errorf("providers hold %d bytes for %d bytes of segments", got, stored)
	}
	if info, err := c.Handle(st.Blobs()[1], pageSize).Latest(ctx); err != nil || info.Ver != maps-1 {
		t.Errorf("partition 1 is at version %d (%v), want %d: the empty segment must not append", info.Ver, err, maps-1)
	}

	for p := 0; p < parts; p++ {
		seen := make(map[uint64]bool)
		for consumed := 0; ; consumed++ {
			seg, ok, err := st.Next(ctx, p, consumed)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got, err := fetch(st, c, seg)
			if err != nil {
				t.Fatalf("fetch map %d part %d: %v", seg.Map, p, err)
			}
			want := segPayload(int(seg.Map), p, int(seg.Len))
			if string(got) != string(want) {
				t.Fatalf("map %d part %d payload mismatch (%d bytes)", seg.Map, p, len(got))
			}
			// A re-read (a retried reduce attempt) must not re-count:
			// the stats assertion below stays exact despite this.
			if _, err := fetch(st, c, seg); err != nil {
				t.Fatalf("refetch map %d part %d: %v", seg.Map, p, err)
			}
			st.MarkRecovered(seg)
			st.MarkRecovered(seg) // idempotent per segment
			seen[seg.Map] = true
		}
		if len(seen) != maps {
			t.Fatalf("partition %d saw %d maps, want %d", p, len(seen), maps)
		}
	}
	if a, f, r := st.Segments(); a != maps*parts || f != maps*parts || r != maps*parts {
		t.Errorf("segments appended/fetched/recovered = %d/%d/%d, want %d each", a, f, r, maps*parts)
	}
	// The process counters count each segment once too.
	if f, r := fetched.Load()-fetchedBefore, recovered.Load()-recoveredBefore; f != maps*parts || r != maps*parts {
		t.Errorf("process counters grew by %d fetched and %d recovered, want %d each", f, r, maps*parts)
	}
}

// TestStoreConcurrentAppenders is the concurrent-appender race test of
// the blob store: every map appends from its own client at once (the
// paper's nMaps-appenders-per-BLOB workload) while reducers stream the
// segments out as they publish. Run under -race in CI.
func TestStoreConcurrentAppenders(t *testing.T) {
	const maps, parts, pageSize = 16, 3, 256
	cluster := newTestCluster(t)
	setup := cluster.Client("node-000")
	defer setup.Close()

	st, err := NewBlobStore(ctx, setup, 7, parts, pageSize)
	if err != nil {
		t.Fatal(err)
	}

	var appenders sync.WaitGroup
	appendErrs := make(chan error, maps)
	for m := 0; m < maps; m++ {
		appenders.Add(1)
		go func(m int) {
			defer appenders.Done()
			c := cluster.Client(fmt.Sprintf("node-%03d", m%4))
			defer c.Close()
			// Partitions in recycled frames, as a map task's are: one
			// an append still read after AppendMap returned would be
			// stored poisoned and fail its fetch's checksum.
			data := make([][]byte, parts)
			for p := range data {
				want := segPayload(m, p, 64+m*13+p*5)
				data[p] = append(transport.NewFrame(len(want)), want...)
			}
			err := st.AppendMap(ctx, c, uint64(m), data)
			for _, b := range data {
				transport.ReleaseFrame(b)
			}
			if err != nil {
				appendErrs <- fmt.Errorf("map %d: %w", m, err)
			}
		}(m)
	}
	go func() {
		appenders.Wait()
		st.SetMapCount(maps)
	}()

	var readers sync.WaitGroup
	readErrs := make(chan error, parts)
	for p := 0; p < parts; p++ {
		readers.Add(1)
		go func(p int) {
			defer readers.Done()
			c := cluster.Client(fmt.Sprintf("node-%03d", p%4))
			defer c.Close()
			count := 0
			for consumed := 0; ; consumed++ {
				seg, ok, err := st.Next(ctx, p, consumed)
				if err != nil {
					readErrs <- err
					return
				}
				if !ok {
					if count != maps {
						readErrs <- fmt.Errorf("partition %d got %d segments, want %d", p, count, maps)
					}
					return
				}
				got, err := fetch(st, c, seg)
				if err != nil {
					readErrs <- err
					return
				}
				want := segPayload(int(seg.Map), p, int(seg.Len))
				if string(got) != string(want) {
					readErrs <- fmt.Errorf("map %d part %d payload mismatch", seg.Map, p)
					return
				}
				count++
			}
		}(p)
	}
	readers.Wait()
	close(appendErrs)
	close(readErrs)
	for err := range appendErrs {
		t.Error(err)
	}
	for err := range readErrs {
		t.Error(err)
	}
}

// byAddr places the pages of every lease on the providers it names, in
// turn, so a test knows which provider stores which append.
type byAddr []transport.Addr

func (s byAddr) Name() string { return "by-addr" }

func (s byAddr) Pick(nPages, replicas int, providers []string, _ []uint64) []int {
	out := make([]int, 0, nPages*replicas)
	for i := 0; i < nPages*replicas; i++ {
		out = append(out, slices.Index(providers, string(s[i%len(s)])))
	}
	return out
}

// TestAppendMapDrainsBeforeItFails: an AppendMap that fails returns
// only once every append it launched has finished, so the caller may
// recycle the partitions the moment it returns. One partition's page
// is held on its way to the provider that stores it while the other
// partition fails — its provider refuses the page, or the append is
// refused before it begins — and AppendMap must still be waiting when
// the held page is released.
func TestAppendMapDrainsBeforeItFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		// held names the partition whose page is held; fail makes the
		// other one fail.
		held int
		fail func(t *testing.T, cluster *blob.Cluster, c *blob.Client, st *Store, other int)
	}{
		{"put refused", 1, func(t *testing.T, cluster *blob.Cluster, _ *blob.Client, _ *Store, other int) {
			cluster.Providers[other].SetFailPuts(true)
		}},
		{"append refused", 0, func(t *testing.T, _ *blob.Cluster, c *blob.Client, st *Store, other int) {
			if err := c.DeleteBlob(ctx, st.Blobs()[other]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pageSize = 256
			// Once hold is armed, every response a data provider sends
			// first runs it, given the provider's address, in the
			// handler's goroutine — after the page is stored, before
			// the client hears so.
			var hold atomic.Pointer[func(provider transport.Addr)]
			net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, _ []byte) error {
				if h := hold.Load(); h != nil && c.LocalAddr().Service() == blob.SvcProvider {
					(*h)(c.LocalAddr())
				}
				return nil
			})
			var place byAddr // partition p's page goes to provider p
			cluster, err := blob.NewCluster(net, blob.ClusterConfig{Providers: 2, MetaProviders: 2, Strategy: &place})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cluster.Close() })
			for _, p := range cluster.Providers {
				place = append(place, p.Addr())
			}
			c := cluster.Client("node-000")
			defer c.Close()
			st, err := NewBlobStore(ctx, c, 9, 2, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			other := 1 - tc.held
			tc.fail(t, cluster, c, st, other)

			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			holdPut := func(provider transport.Addr) {
				if provider == place[tc.held] {
					once.Do(func() { close(entered) })
					<-release
				}
			}
			hold.Store(&holdPut)
			done := make(chan error, 1)
			go func() {
				done <- st.AppendMap(ctx, c, 0, [][]byte{segPayload(0, 0, 100), segPayload(0, 1, 100)})
			}()
			<-entered
			// The failing partition's append is over once only the held
			// one is in flight; an AppendMap that returned on its
			// failure would be back long before the deadline.
			for c.InFlight() != 1 {
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-done:
				close(release)
				t.Fatalf("AppendMap returned (%v) while a page of it was still held", err)
			case <-time.After(100 * time.Millisecond):
			}
			hold.Store(nil)
			close(release)
			if err := <-done; err == nil {
				t.Error("AppendMap succeeded with a partition failed")
			}
			if n := c.InFlight(); n != 0 {
				t.Errorf("AppendMap returned with %d appends in flight", n)
			}
		})
	}
}

// TestStoreChecksumRejectsWrongSegment tampers with a segment's
// recorded checksum and expects Fetch to refuse it.
func TestStoreChecksumRejectsWrongSegment(t *testing.T) {
	cluster := newTestCluster(t)
	c := cluster.Client("node-001")
	defer c.Close()
	st, err := NewBlobStore(ctx, c, 2, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendMap(ctx, c, 0, [][]byte{segPayload(0, 0, 50)}); err != nil {
		t.Fatal(err)
	}
	st.SetMapCount(1)
	seg, ok, err := st.Next(ctx, 0, 0)
	if err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	seg.Sum ^= 0xdeadbeef
	if _, err := fetch(st, c, seg); err == nil {
		t.Fatal("corrupted checksum accepted")
	}
}

// TestFetchAsksTheVersionManagerOnce counts the client-side calls of
// reading a job's segments back: a fetched segment costs one
// vm.WaitPublished and takes no pin — the job owns its partition
// BLOBs' lifetime by ordering (Cleanup runs after the last task), so
// there is nothing for a per-segment lease to guard. An empty segment
// was never appended and asks nothing. Through a reader that wrote
// nothing, a segment's leaves are one level of gets, a meta.GetBatch per
// metadata provider holding one at most and never more than its pages,
// and a second pass asks the metadata plane nothing.
func TestFetchAsksTheVersionManagerOnce(t *testing.T) {
	const maps, parts, pageSize = 5, 3, 256
	cluster := newTestCluster(t)
	c := cluster.Client("node-000")
	defer c.Close()
	st, err := NewBlobStore(ctx, c, 4, parts, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < maps; m++ {
		data := make([][]byte, parts)
		for p := range data {
			data[p] = segPayload(m, p, 100+m*90+p*17)
		}
		if m == 2 {
			data[1] = nil
		}
		if err := st.AppendMap(ctx, c, uint64(m), data); err != nil {
			t.Fatal(err)
		}
	}
	st.SetMapCount(maps)

	before := metrics.Default.RPCClient.Snapshot()
	var fetched uint64
	for p := 0; p < parts; p++ {
		for consumed := 0; ; consumed++ {
			seg, ok, err := st.Next(ctx, p, consumed)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, err := fetch(st, c, seg); err != nil {
				t.Fatal(err)
			}
			if seg.Len > 0 {
				fetched++
			}
		}
	}
	after := metrics.Default.RPCClient.Snapshot()
	if fetched != maps*parts-1 {
		t.Fatalf("fetched %d non-empty segments, want %d", fetched, maps*parts-1)
	}
	for _, want := range []struct {
		m     rpc.Method
		calls uint64
	}{{blob.VMWaitPublished, fetched}, {blob.VMPin, 0}, {blob.VMUnpin, 0}} {
		if got := after[want.m.Name].Calls - before[want.m.Name].Calls; got != want.calls {
			t.Errorf("%s: %d calls for %d fetched segments, want %d", want.m.Name, got, fetched, want.calls)
		}
	}

	reader := cluster.Client("node-001")
	defer reader.Close()
	metaProviders := uint64(len(cluster.MetaAddrs()))
	for pass := 0; pass < 2; pass++ {
		var getBatches uint64
		for p := 0; p < parts; p++ {
			for consumed := 0; ; consumed++ {
				seg, ok, err := st.Next(ctx, p, consumed)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				before := metrics.Default.RPCClient.Snapshot()
				if _, err := fetch(st, reader, seg); err != nil {
					t.Fatal(err)
				}
				after := metrics.Default.RPCClient.Snapshot()
				calls := func(m rpc.Method) uint64 { return after[m.Name].Calls - before[m.Name].Calls }
				var pages, waits uint64
				if seg.Len > 0 {
					pages, waits = (seg.Off+seg.Len-1)/pageSize-seg.Off/pageSize+1, 1
				}
				gb := calls(dht.MethodGetBatch)
				getBatches += gb
				if got := calls(blob.VMWaitPublished); got != waits {
					t.Errorf("pass %d, map %d part %d: %d vm.WaitPublished calls, want %d", pass, seg.Map, p, got, waits)
				}
				if gb > pages || gb > metaProviders {
					t.Errorf("pass %d, map %d part %d: %d meta.GetBatch calls for a segment of %d pages over %d metadata providers", pass, seg.Map, p, gb, pages, metaProviders)
				}
			}
		}
		if pass == 0 && getBatches == 0 {
			t.Error("the cold reader fetched no tree node")
		}
		if pass == 1 && getBatches != 0 {
			t.Errorf("a second pass through the same reader made %d meta.GetBatch calls, want 0", getBatches)
		}
	}
}

// TestFetchCachesNothing: a segment is read once per reduce attempt, so
// a fetch copies each page straight into the segment and keeps none of
// it: a client that fetched a whole partition holds no page of its BLOB
// afterwards, and asked a provider exactly once per page it read.
func TestFetchCachesNothing(t *testing.T) {
	const maps, pageSize = 6, 256
	cluster := newTestCluster(t)
	c, reader := cluster.Client("node-000"), cluster.Client("node-001")
	defer c.Close()
	defer reader.Close()
	st, err := NewBlobStore(ctx, c, 10, 1, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < maps; m++ {
		if err := st.AppendMap(ctx, c, uint64(m), [][]byte{segPayload(m, 0, 100+m*90)}); err != nil {
			t.Fatal(err)
		}
	}
	st.SetMapCount(maps)
	var pages uint64
	for consumed := 0; ; consumed++ {
		seg, ok, err := st.Next(ctx, 0, consumed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got, err := fetch(st, reader, seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, segPayload(int(seg.Map), 0, int(seg.Len))) {
			t.Fatalf("map %d reads wrong", seg.Map)
		}
		pages += (seg.Off+seg.Len-1)/pageSize - seg.Off/pageSize + 1
	}
	if n := reader.PageCache().PurgeBlob(st.Blobs()...); n != 0 {
		t.Errorf("the fetching client cached %d pages of the partition", n)
	}
	if got := reader.ReadStats().Snapshot().ProviderFetches; got != pages {
		t.Errorf("%d provider fetches for %d pages read", got, pages)
	}
}

// TestColdFetchAllocationBudget: in the data join's shape, 124 segments
// of about 17 KB in one partition of 64 KiB pages, a segment fetched by a
// client that has read none of it costs the process about 22 objects,
// 1.3 times the segment's bytes and a meta.GetBatch or two: the segment
// buffer is its one page-sized allocation, every page copied into it
// straight out of a response frame that goes back to the pool. Walking
// the segment tree cost 106 objects and 5.4 round trips; keeping each
// page's response frame in the page cache cost 30 objects and 3.4
// times the segment's bytes.
func TestColdFetchAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	const segs, pageSize, budget, byteBudget = 124, 64 << 10, 28, 1.5
	cluster := newTestCluster(t)
	c, reader := cluster.Client("node-000"), cluster.Client("node-001")
	defer c.Close()
	defer reader.Close()
	st, err := NewBlobStore(ctx, c, 8, 1, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < segs; m++ {
		if err := st.AppendMap(ctx, c, uint64(m), [][]byte{segPayload(m, 0, 16<<10+m*37%2048)}); err != nil {
			t.Fatal(err)
		}
	}
	st.SetMapCount(segs)
	var segBytes uint64 // of segments 1 on
	fetch := func(i int) {
		seg, ok, err := st.Next(ctx, 0, i)
		if err == nil && ok {
			_, err = fetch(st, reader, seg)
		}
		if err != nil || !ok {
			t.Fatalf("segment %d: %v, %v", i, ok, err)
		}
		if i > 0 {
			segBytes += seg.Len
		}
	}
	fetch(0) // the reader's connections, worker pool and version cache
	getBatches := func() uint64 { return metrics.Default.RPCClient.Snapshot()[dht.MethodGetBatch.Name].Calls }
	gb := getBatches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < segs; i++ {
		fetch(i)
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / (segs - 1)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(segBytes)
	t.Logf("a cold fetch: %.1f objects, %.2f bytes per segment byte, %.2f meta.GetBatch", objects, perByte, float64(getBatches()-gb)/(segs-1))
	if objects > budget {
		t.Errorf("a cold segment fetch allocates %.1f objects, budget %d", objects, budget)
	}
	if perByte > byteBudget {
		t.Errorf("a cold segment fetch allocates %.2f bytes per segment byte, budget %.1f", perByte, byteBudget)
	}
}

// TestFetchSegmentShapes reads back, through a client that wrote none of
// them, the three shapes a segment's version stores: whole pages over
// several slots, a fragment behind earlier segments' bytes, and the
// append that finds its slot's chain full and stores the slot prefix,
// earlier segments' bytes folded in.
func TestFetchSegmentShapes(t *testing.T) {
	const pageSize = 256
	cluster := newTestCluster(t)
	c, reader := cluster.Client("node-000"), cluster.Client("node-001")
	defer c.Close()
	defer reader.Close()
	st, err := NewBlobStore(ctx, c, 6, 1, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// 600 bytes over three slots, then 5-byte segments into the third
	// until its chain is full and one compacts it, then 700 bytes
	// beginning mid-page.
	sizes := []int{600}
	for range segtree.MaxSlotFragments + 2 {
		sizes = append(sizes, 5)
	}
	sizes = append(sizes, 700)
	for m, n := range sizes {
		if err := st.AppendMap(ctx, c, uint64(m), [][]byte{segPayload(m, 0, n)}); err != nil {
			t.Fatal(err)
		}
	}
	st.SetMapCount(len(sizes))

	var multi, frags, compacted int
	for consumed := 0; ; consumed++ {
		seg, ok, err := st.Next(ctx, 0, consumed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got, err := fetch(st, reader, seg)
		if err != nil {
			t.Fatalf("fetch map %d: %v", seg.Map, err)
		}
		if !bytes.Equal(got, segPayload(int(seg.Map), 0, int(seg.Len))) {
			t.Fatalf("map %d reads wrong", seg.Map)
		}
		first, last := seg.Off/pageSize, (seg.Off+seg.Len-1)/pageSize
		slots, err := segtree.Written(ctx, reader.NodeStore(), st.Blobs()[0], seg.Ver, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case slots[0].Ref.Lo != 0:
			frags++
		case seg.Off%pageSize != 0:
			compacted++
		}
		if last > first {
			multi++
		}
	}
	if multi < 2 || frags == 0 || compacted == 0 {
		t.Errorf("%d segments over several pages, %d fragments, %d compacting appends: the partition must hold every shape", multi, frags, compacted)
	}
}

// TestFetchAfterCleanupIsRefused: once the job has deleted its
// partition BLOBs and the collector has taken them, a fetch is refused
// with one of the version manager's typed errors — also through a
// client whose caches still hold the segment's version, slots and
// pages, because Fetch asks the version manager before it reads. No
// pin holds the delete off, and no cache answers for a BLOB that is
// gone.
func TestFetchAfterCleanupIsRefused(t *testing.T) {
	const pageSize = 128
	cluster := newTestCluster(t)
	c, reader, gcClient := cluster.Client("node-000"), cluster.Client("node-001"), cluster.Client("node-002")
	defer c.Close()
	defer reader.Close()
	defer gcClient.Close()
	col := gc.New(gcClient, nil)
	defer col.Close()

	st, err := NewBlobStore(ctx, c, 5, 1, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	want := segPayload(0, 0, 300)
	if err := st.AppendMap(ctx, c, 0, [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	st.SetMapCount(1)
	seg, ok, err := st.Next(ctx, 0, 0)
	if err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if got, err := fetch(st, reader, seg); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch before cleanup: %d bytes, %v", len(got), err)
	}

	if err := st.Cleanup(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := col.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	for name, cl := range map[string]*blob.Client{"deleting": c, "warm": reader} {
		got, err := fetch(st, cl, seg)
		if !errors.Is(err, blob.ErrVersionCollected) && !errors.Is(err, blob.ErrBlobNotFound) {
			t.Errorf("fetch through the %s client after cleanup = %d bytes, %v; want ErrVersionCollected or ErrBlobNotFound", name, len(got), err)
		}
	}
}
