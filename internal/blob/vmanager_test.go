package blob

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// vmHarness drives the version manager protocol directly.
type vmHarness struct {
	vm   *VersionManager
	pool *rpc.Pool
	blob uint64
}

func newVMHarness(t *testing.T, pageSize uint64) *vmHarness {
	t.Helper()
	return newVMHarnessWith(t, pageSize, VersionManagerConfig{})
}

// newVMHarnessWith is newVMHarness on a manager configured by cfg, over
// an in-memory metadata store.
func newVMHarnessWith(t *testing.T, pageSize uint64, cfg VersionManagerConfig) *vmHarness {
	t.Helper()
	net := transport.NewMemNet()
	cfg.Nodes = segtree.NewMemStore()
	vm, err := NewVersionManager(net, "vm-host/vmanager", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vm.Close() })
	pool := rpc.NewPool(net, "cli/x")
	t.Cleanup(func() { pool.Close() })

	var resp CreateBlobResp
	if err := pool.Call(ctx, vm.Addr(), VMCreateBlob, &CreateBlobReq{PageSize: pageSize}, &resp); err != nil {
		t.Fatal(err)
	}
	return &vmHarness{vm: vm, pool: pool, blob: resp.Blob}
}

func (h *vmHarness) assign(t *testing.T, kind, off, length, since uint64) AssignResp {
	t.Helper()
	var resp AssignResp
	err := h.pool.Call(ctx, h.vm.Addr(), VMAssign,
		&AssignReq{Blob: h.blob, Kind: kind, Off: off, Len: length, SinceVer: since}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (h *vmHarness) complete(t *testing.T, ver uint64) error {
	t.Helper()
	return h.pool.Call(ctx, h.vm.Addr(), VMComplete, &VersionRef{Blob: h.blob, Ver: ver}, nil)
}

func (h *vmHarness) latest(t *testing.T) VersionInfo {
	t.Helper()
	var info VersionInfo
	if err := h.pool.Call(ctx, h.vm.Addr(), VMLatest, &BlobRef{Blob: h.blob}, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestAssignAppendOffsets(t *testing.T) {
	h := newVMHarness(t, 100)
	// Three concurrent-style appends: offsets are consecutive in
	// assignment order, regardless of completion.
	a1 := h.assign(t, KindAppend, 0, 250, 0)
	a2 := h.assign(t, KindAppend, 0, 100, 0)
	a3 := h.assign(t, KindAppend, 0, 50, 0)
	if a1.Start != 0 || a2.Start != 250 || a3.Start != 350 {
		t.Fatalf("starts = %d, %d, %d", a1.Start, a2.Start, a3.Start)
	}
	if a1.Ver != 1 || a2.Ver != 2 || a3.Ver != 3 {
		t.Fatalf("versions = %d, %d, %d", a1.Ver, a2.Ver, a3.Ver)
	}
	// Page intervals: a1 covers pages [0,3), a2 [2,4) (unaligned
	// boundary shares page 2), a3 [3,4).
	if a1.Record.Off != 0 || a1.Record.N != 3 {
		t.Errorf("a1 record = %+v", a1.Record)
	}
	if a2.Record.Off != 2 || a2.Record.N != 2 {
		t.Errorf("a2 record = %+v", a2.Record)
	}
	if a3.Record.Off != 3 || a3.Record.N != 1 {
		t.Errorf("a3 record = %+v", a3.Record)
	}
}

func TestAssignHistoryDelta(t *testing.T) {
	h := newVMHarness(t, 100)
	h.assign(t, KindAppend, 0, 100, 0)
	h.assign(t, KindAppend, 0, 100, 0)
	// A client that knows nothing gets the full history.
	a3 := h.assign(t, KindAppend, 0, 100, 0)
	if len(a3.History) != 2 {
		t.Fatalf("history = %d records", len(a3.History))
	}
	if a3.History[0].Ver != 1 || a3.History[1].Ver != 2 {
		t.Fatalf("history versions = %+v", a3.History)
	}
	// A client that already caches through version 2 gets only v3.
	a4 := h.assign(t, KindAppend, 0, 100, 2)
	if len(a4.History) != 1 || a4.History[0].Ver != 3 {
		t.Fatalf("delta history = %+v", a4.History)
	}
	// Fully caught up: empty delta.
	a5 := h.assign(t, KindAppend, 0, 100, 4)
	if len(a5.History) != 0 {
		t.Fatalf("caught-up history = %+v", a5.History)
	}
}

// TestPinAndGetVersionHistoryDelta: Pin and GetVersion answer with the
// version's info and the records in (SinceVer, Ver], sliced as Assign's
// delta is: all of them for a client that knows none, the newer ones for
// one with a prefix, none for one caught up or past the version.
func TestPinAndGetVersionHistoryDelta(t *testing.T) {
	h := newVMHarness(t, 100)
	h.publishN(t, 4)
	for _, tc := range []struct {
		since uint64
		want  []uint64
	}{{0, []uint64{1, 2, 3}}, {2, []uint64{3}}, {3, nil}, {4, nil}} {
		for _, call := range []struct {
			m   rpc.Method
			req wire.Marshaler
		}{
			{VMPin, &GetVersionReq{Blob: h.blob, Ver: 3, SinceVer: tc.since}},
			{VMGetVersion, &GetVersionReq{Blob: h.blob, Ver: 3, SinceVer: tc.since}},
		} {
			var resp VersionResp
			if err := h.pool.Call(ctx, h.vm.Addr(), call.m, call.req, &resp); err != nil {
				t.Fatalf("%s since %d: %v", call.m.Name, tc.since, err)
			}
			var got []uint64
			for _, r := range resp.Records {
				got = append(got, r.Ver)
			}
			if resp.Info.Ver != 3 || resp.Info.Size != 300 || !slices.Equal(got, tc.want) {
				t.Errorf("%s since %d: info %+v, records of versions %v; want version 3 of 300 bytes and %v", call.m.Name, tc.since, resp.Info, got, tc.want)
			}
		}
	}
}

func TestPublicationStrictOrder(t *testing.T) {
	h := newVMHarness(t, 100)
	h.assign(t, KindAppend, 0, 100, 0)
	h.assign(t, KindAppend, 0, 100, 0)
	h.assign(t, KindAppend, 0, 100, 0)

	// Completing v2 and v3 publishes nothing while v1 is pending.
	if err := h.complete(t, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.complete(t, 3); err != nil {
		t.Fatal(err)
	}
	if got := h.latest(t); got.Ver != 0 {
		t.Fatalf("latest = %d before v1 completes", got.Ver)
	}
	// Completing v1 releases the whole chain at once.
	if err := h.complete(t, 1); err != nil {
		t.Fatal(err)
	}
	if got := h.latest(t); got.Ver != 3 || got.Size != 300 {
		t.Fatalf("latest = %+v", got)
	}
}

func TestWaitPublishedWakesInOrder(t *testing.T) {
	h := newVMHarness(t, 100)
	h.assign(t, KindAppend, 0, 100, 0)
	h.assign(t, KindAppend, 0, 100, 0)

	done := make(chan VersionInfo, 1)
	go func() {
		var info VersionInfo
		err := h.pool.Call(ctx, h.vm.Addr(), VMWaitPublished,
			&VersionRef{Blob: h.blob, Ver: 2}, &info)
		if err == nil {
			done <- info
		}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("woke before publication")
	default:
	}
	if err := h.complete(t, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.complete(t, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-done:
		if info.Ver != 2 || !info.Published {
			t.Fatalf("info = %+v", info)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitPublishedTimeout(t *testing.T) {
	h := newVMHarnessWith(t, 100, VersionManagerConfig{waitHold: 50 * time.Millisecond})
	h.assign(t, KindAppend, 0, 100, 0)
	var info VersionInfo
	err := h.pool.Call(ctx, h.vm.Addr(), VMWaitPublished,
		&VersionRef{Blob: h.blob, Ver: 1}, &info)
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitPublishedTimeoutDeregistersWaiter(t *testing.T) {
	h := newVMHarnessWith(t, 100, VersionManagerConfig{waitHold: 20 * time.Millisecond})
	h.assign(t, KindAppend, 0, 100, 0) // v1 stays pending throughout
	// Each timed-out wait — the shape of Client.WaitPublished's retry
	// loop, which registers a fresh server-side channel per attempt —
	// must deregister its waiter, or the map grows without bound while
	// a version stays pending.
	for i := 0; i < 8; i++ {
		var info VersionInfo
		err := h.pool.Call(ctx, h.vm.Addr(), VMWaitPublished,
			&VersionRef{Blob: h.blob, Ver: 1}, &info)
		if !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("wait %d: err = %v", i, err)
		}
		if n := h.vm.waiterCount(h.blob, 1); n != 0 {
			t.Fatalf("after %d timed-out waits: %d waiters registered, want 0", i+1, n)
		}
	}
	// The version still publishes normally afterwards.
	if err := h.complete(t, 1); err != nil {
		t.Fatal(err)
	}
	if got := h.latest(t); got.Ver != 1 {
		t.Fatalf("latest = %+v", got)
	}
}

func TestShardedBlobsPublishIndependently(t *testing.T) {
	// Many BLOBs driven concurrently: assignment, completion, and
	// publication of one BLOB must never depend on another (the
	// sharded-lock refactor's contract).
	net := transport.NewMemNet()
	vm, err := NewVersionManager(net, "vm-host/vmanager", VersionManagerConfig{Nodes: segtree.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	pool := rpc.NewPool(net, "cli/x")
	defer pool.Close()

	const blobs, versions = 64, 4
	ids := make([]uint64, blobs)
	for i := range ids {
		var resp CreateBlobResp
		if err := pool.Call(ctx, vm.Addr(), VMCreateBlob, &CreateBlobReq{PageSize: 100}, &resp); err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.Blob
	}
	var wg sync.WaitGroup
	errs := make(chan error, blobs)
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				var a AssignResp
				if err := pool.Call(ctx, vm.Addr(), VMAssign,
					&AssignReq{Blob: id, Kind: KindAppend, Len: 100}, &a); err != nil {
					errs <- err
					return
				}
				if err := pool.Call(ctx, vm.Addr(), VMComplete,
					&VersionRef{Blob: id, Ver: a.Ver}, nil); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		var info VersionInfo
		if err := pool.Call(ctx, vm.Addr(), VMLatest, &BlobRef{Blob: id}, &info); err != nil {
			t.Fatal(err)
		}
		if info.Ver != versions || info.Size != versions*100 {
			t.Fatalf("blob %d: latest = %+v", id, info)
		}
	}
	var stats VMStatsResp
	if err := pool.Call(ctx, vm.Addr(), VMStats, nil, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Blobs != blobs || stats.Assigned != blobs*versions || stats.Published != blobs*versions {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestWriteExtendsAndKeepsSizeMonotonic(t *testing.T) {
	h := newVMHarness(t, 100)
	h.assign(t, KindAppend, 0, 500, 0)
	// An interior write must not shrink the size.
	a2 := h.assign(t, KindWrite, 100, 50, 0)
	if a2.SizeAfter != 500 {
		t.Fatalf("interior write SizeAfter = %d", a2.SizeAfter)
	}
	// A write past the end extends it.
	a3 := h.assign(t, KindWrite, 900, 100, 0)
	if a3.SizeAfter != 1000 {
		t.Fatalf("extending write SizeAfter = %d", a3.SizeAfter)
	}
	if a3.Record.PagesAfter != 10 {
		t.Fatalf("PagesAfter = %d", a3.Record.PagesAfter)
	}
}

func TestZeroLengthAssignRejected(t *testing.T) {
	h := newVMHarness(t, 100)
	var resp AssignResp
	err := h.pool.Call(ctx, h.vm.Addr(), VMAssign,
		&AssignReq{Blob: h.blob, Kind: KindAppend, Len: 0}, &resp)
	if err == nil {
		t.Fatal("zero-length assign accepted")
	}
}

func TestAssignUnknownBlob(t *testing.T) {
	h := newVMHarness(t, 100)
	var resp AssignResp
	err := h.pool.Call(ctx, h.vm.Addr(), VMAssign,
		&AssignReq{Blob: 999, Kind: KindAppend, Len: 10}, &resp)
	if !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompleteValidation(t *testing.T) {
	h := newVMHarness(t, 100)
	if err := h.complete(t, 1); !errors.Is(err, ErrNoSuchVersion) {
		t.Errorf("complete unassigned: %v", err)
	}
	h.assign(t, KindAppend, 0, 100, 0)
	if err := h.complete(t, 1); err != nil {
		t.Fatal(err)
	}
	// Double complete is idempotent: a router retry after shard
	// failover may re-deliver a Complete the journal already
	// acknowledged, and that must not fail the write.
	if err := h.complete(t, 1); err != nil {
		t.Errorf("double complete: %v", err)
	}
}

func TestSealTimeoutAdvancesChain(t *testing.T) {
	net := transport.NewMemNet()
	nodes := segtree.NewMemStore()
	vm, err := NewVersionManager(net, "vm-host/vmanager", VersionManagerConfig{
		Nodes: nodes,
		lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	pool := rpc.NewPool(net, "cli/x")
	defer pool.Close()

	var created CreateBlobResp
	if err := pool.Call(ctx, vm.Addr(), VMCreateBlob, &CreateBlobReq{PageSize: 100}, &created); err != nil {
		t.Fatal(err)
	}
	// v1 is abandoned; v2 completes.
	var a1, a2 AssignResp
	if err := pool.Call(ctx, vm.Addr(), VMAssign, &AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 100}, &a1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Call(ctx, vm.Addr(), VMAssign, &AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 100}, &a2); err != nil {
		t.Fatal(err)
	}
	if err := pool.Call(ctx, vm.Addr(), VMComplete, &VersionRef{Blob: created.Blob, Ver: a2.Ver}, nil); err != nil {
		t.Fatal(err)
	}
	// The seal loop must eventually publish v2 over the dead v1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var info VersionInfo
		if err := pool.Call(ctx, vm.Addr(), VMLatest, &BlobRef{Blob: created.Blob}, &info); err != nil {
			t.Fatal(err)
		}
		if info.Ver == a2.Ver {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seal loop never advanced publication")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The sealed version's metadata exists (hole tree committed).
	if nodes.Len() == 0 {
		t.Error("no hole metadata committed for the sealed version")
	}
}

// TestHugeAssignIsRefused: an assign whose length no seal could cover
// with hole references, or whose end overflows, is refused before it
// is journaled, so no pending version of that size exists for the
// seal timeout to find (a 2⁶²-byte one used to panic the seal's
// make on the manager's sweep and take every in-process service down
// with it), and the manager goes on assigning and sealing.
func TestHugeAssignIsRefused(t *testing.T) {
	net := transport.NewMemNet()
	vm, err := NewVersionManager(net, "vm-host/vmanager", VersionManagerConfig{
		Nodes: segtree.NewMemStore(),
		lease: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	pool := rpc.NewPool(net, "cli/x")
	defer pool.Close()
	var created CreateBlobResp
	if err := pool.Call(ctx, vm.Addr(), VMCreateBlob, &CreateBlobReq{PageSize: 100}, &created); err != nil {
		t.Fatal(err)
	}
	for _, req := range []AssignReq{
		{Kind: KindAppend, Len: 1 << 62},
		{Kind: KindWrite, Len: (maxAllocPages + 1) * 100},
		{Kind: KindWrite, Off: math.MaxUint64 - 10, Len: 100},
	} {
		req.Blob = created.Blob
		if err := pool.Call(ctx, vm.Addr(), VMAssign, &req, &AssignResp{}); err == nil {
			t.Errorf("assign of %d bytes at %d succeeded", req.Len, req.Off)
		}
	}
	// A write assigned and abandoned: the seal sweep covers it with
	// holes and publishes it.
	var a AssignResp
	if err := pool.Call(ctx, vm.Addr(), VMAssign, &AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 100}, &a); err != nil {
		t.Fatalf("an assign after the refused ones: %v", err)
	}
	if a.Ver != 1 {
		t.Fatalf("the first allowed assign got version %d: a refused one was assigned", a.Ver)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info VersionInfo
		if err := pool.Call(ctx, vm.Addr(), VMLatest, &BlobRef{Blob: created.Blob}, &info); err != nil {
			t.Fatal(err)
		}
		if info.Ver == a.Ver {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned version was never sealed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scan drives a reclaim scan RPC against the harness manager.
func (h *vmHarness) scan(t *testing.T) *ReclaimScanResp {
	t.Helper()
	var resp ReclaimScanResp
	if err := h.pool.Call(ctx, h.vm.Addr(), VMReclaimScan, nil, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func (h *vmHarness) publishN(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := h.assign(t, KindAppend, 0, 100, 0)
		if err := h.complete(t, a.Ver); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetentionScanAdvancesFrontier: with RetainLatest(2) set, a scan
// hands out exactly the versions below published-1 and marks them
// collected; a second scan with no new publications is empty.
func TestRetentionScanAdvancesFrontier(t *testing.T) {
	h := newVMHarness(t, 100)
	h.publishN(t, 5)
	if err := h.pool.Call(ctx, h.vm.Addr(), VMSetRetention,
		&SetRetentionReq{Blob: h.blob, Retain: 2}, nil); err != nil {
		t.Fatal(err)
	}
	resp := h.scan(t)
	if len(resp.Blobs) != 1 {
		t.Fatalf("scan returned %d blobs, want 1", len(resp.Blobs))
	}
	br := resp.Blobs[0]
	if br.From != 1 || br.To != 4 || br.Deleted {
		t.Fatalf("scan window = [%d,%d) deleted=%v, want [1,4)", br.From, br.To, br.Deleted)
	}
	if len(br.Records) != 4 {
		t.Fatalf("scan shipped %d records, want 4 (through the first live version)", len(br.Records))
	}
	if resp2 := h.scan(t); len(resp2.Blobs) != 0 {
		t.Fatalf("idle rescan returned %d blobs", len(resp2.Blobs))
	}
	// Collected versions answer ErrVersionCollected; live ones work.
	err := h.pool.Call(ctx, h.vm.Addr(), VMGetVersion, &GetVersionReq{Blob: h.blob, Ver: 2, SinceVer: 2}, &VersionResp{})
	if !errors.Is(err, ErrVersionCollected) {
		t.Errorf("GetVersion(collected) = %v", err)
	}
	if err := h.pool.Call(ctx, h.vm.Addr(), VMGetVersion, &GetVersionReq{Blob: h.blob, Ver: 4, SinceVer: 4}, &VersionResp{}); err != nil {
		t.Errorf("GetVersion(live) = %v", err)
	}
}

// TestPinLeaseExpiryUnblocksScan: an expired pin no longer clamps the
// frontier — a crashed reader delays collection by one TTL, not
// forever.
func TestPinLeaseExpiryUnblocksScan(t *testing.T) {
	h := newVMHarnessWith(t, 100, VersionManagerConfig{lease: 20 * time.Millisecond})
	h.publishN(t, 4)
	if err := h.pool.Call(ctx, h.vm.Addr(), VMPin,
		&GetVersionReq{Blob: h.blob, Ver: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.pool.Call(ctx, h.vm.Addr(), VMSetRetention,
		&SetRetentionReq{Blob: h.blob, Retain: 1}, nil); err != nil {
		t.Fatal(err)
	}
	resp := h.scan(t)
	if len(resp.Blobs) != 0 || resp.PinsBlocked == 0 {
		t.Fatalf("pinned scan: blobs=%d blocked=%d, want clamp at the pin", len(resp.Blobs), resp.PinsBlocked)
	}
	time.Sleep(40 * time.Millisecond)
	resp = h.scan(t)
	if len(resp.Blobs) != 1 || resp.Blobs[0].To != 4 {
		t.Fatalf("post-expiry scan = %+v, want frontier through 4", resp.Blobs)
	}
}

// TestListBlobsExcludesDeleted: a deleted BLOB disappears from the
// listing while a sibling survives.
func TestListBlobsExcludesDeleted(t *testing.T) {
	h := newVMHarness(t, 100)
	var second CreateBlobResp
	if err := h.pool.Call(ctx, h.vm.Addr(), VMCreateBlob, &CreateBlobReq{PageSize: 100}, &second); err != nil {
		t.Fatal(err)
	}
	if err := h.pool.Call(ctx, h.vm.Addr(), VMDeleteBlob, &BlobRef{Blob: h.blob}, nil); err != nil {
		t.Fatal(err)
	}
	var list ListBlobsResp
	if err := h.pool.Call(ctx, h.vm.Addr(), VMListBlobs, nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Blobs) != 1 || list.Blobs[0] != second.Blob {
		t.Fatalf("ListBlobs after delete = %v, want only %d", list.Blobs, second.Blob)
	}
	// Appends to the deleted BLOB are refused.
	err := h.pool.Call(ctx, h.vm.Addr(), VMAssign,
		&AssignReq{Blob: h.blob, Kind: KindAppend, Len: 10}, &AssignResp{})
	if !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("assign on deleted blob = %v, want ErrBlobNotFound", err)
	}
}

// TestReclaimNotifyFires: a lifecycle RPC signals the manager's reclaim
// channel.
func TestReclaimNotifyFires(t *testing.T) {
	kicks := make(chan struct{}, 1)
	h := newVMHarnessWith(t, 100, VersionManagerConfig{reclaim: kicks})
	if err := h.pool.Call(ctx, h.vm.Addr(), VMDeleteBlob, &BlobRef{Blob: h.blob}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-kicks:
	case <-time.After(time.Second):
		t.Fatal("DeleteBlob did not signal the reclaim channel")
	}
}

// TestLeaseSweepSignalsReclaim: retention creates garbage that no RPC
// announces, so the lease sweep signals the reclaim channel on its own,
// and the scan that signal asks for collects the versions retention
// retired.
func TestLeaseSweepSignalsReclaim(t *testing.T) {
	kicks := make(chan struct{}, 1)
	h := newVMHarnessWith(t, 100, VersionManagerConfig{RetainLatest: 2, lease: 200 * time.Millisecond, reclaim: kicks})
	h.publishN(t, 10)
	select {
	case <-kicks:
	case <-time.After(2 * time.Second):
		t.Fatal("the lease sweep never signalled the reclaim channel")
	}
	resp := h.scan(t)
	if len(resp.Blobs) != 1 || resp.Blobs[0].To-resp.Blobs[0].From != 8 {
		t.Fatalf("scan after the sweep's signal = %+v, want 8 versions of one BLOB", resp.Blobs)
	}
}

func TestHistoryEnumeratesRetentionWindow(t *testing.T) {
	h := newVMHarness(t, 100)
	history := func(limit uint64) []VersionInfo {
		t.Helper()
		var resp HistoryResp
		if err := h.pool.Call(ctx, h.vm.Addr(), VMHistory,
			&HistoryReq{Blob: h.blob, Limit: limit}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Infos
	}
	if got := history(0); len(got) != 0 {
		t.Fatalf("empty blob history = %+v", got)
	}
	for i := 0; i < 4; i++ {
		a := h.assign(t, KindAppend, 0, 100, 0)
		if err := h.complete(t, a.Ver); err != nil {
			t.Fatal(err)
		}
	}
	// One more assigned but unpublished version: never listed.
	h.assign(t, KindAppend, 0, 100, 0)

	got := history(0)
	if len(got) != 4 {
		t.Fatalf("history = %d entries, want 4 published", len(got))
	}
	for i, vi := range got {
		want := uint64(i + 1)
		if vi.Ver != want || vi.Size != want*100 || !vi.Published {
			t.Fatalf("entry %d = %+v", i, vi)
		}
	}
	// Limit keeps the newest entries.
	got = history(2)
	if len(got) != 2 || got[0].Ver != 3 || got[1].Ver != 4 {
		t.Fatalf("limited history = %+v", got)
	}

	// Truncation moves the window's floor: collected versions drop out.
	if err := h.pool.Call(ctx, h.vm.Addr(), VMTruncateBefore,
		&VersionRef{Blob: h.blob, Ver: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.pool.Call(ctx, h.vm.Addr(), VMReclaimScan, nil, new(ReclaimScanResp)); err != nil {
		t.Fatal(err)
	}
	got = history(0)
	if len(got) != 2 || got[0].Ver != 3 || got[1].Ver != 4 {
		t.Fatalf("post-truncation history = %+v", got)
	}

	// A deleted BLOB's history answers the collected sentinel.
	if err := h.pool.Call(ctx, h.vm.Addr(), VMDeleteBlob, &BlobRef{Blob: h.blob}, nil); err != nil {
		t.Fatal(err)
	}
	err := h.pool.Call(ctx, h.vm.Addr(), VMHistory, &HistoryReq{Blob: h.blob}, new(HistoryResp))
	if !errors.Is(err, ErrVersionCollected) {
		t.Fatalf("history of deleted blob = %v", err)
	}
}

func TestWaitPublishedCoversFutureVersions(t *testing.T) {
	// The tailing primitive: a wait for a version beyond the assigned
	// range blocks until that version is assigned AND published,
	// instead of failing with ErrNoSuchVersion.
	h := newVMHarness(t, 100)
	woke := make(chan error, 1)
	go func() {
		var info VersionInfo
		woke <- h.pool.Call(ctx, h.vm.Addr(), VMWaitPublished,
			&VersionRef{Blob: h.blob, Ver: 1}, &info)
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter register pre-assignment
	a := h.assign(t, KindAppend, 0, 100, 0)
	if err := h.complete(t, a.Ver); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-woke:
		if err != nil {
			t.Fatalf("future-version wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("future-version waiter never woke")
	}
}
