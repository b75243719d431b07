package blob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/transport"
)

var ctx = context.Background()

func newTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(transport.NewMemNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newTestClient(t *testing.T, c *Cluster, host string) *Client {
	t.Helper()
	cl := c.Client(host)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// pattern returns deterministic but position-dependent content.
func pattern(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(tag)*31 + i*7)
	}
	return out
}

func TestCreateOpen(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if b.PageSize() != 4096 {
		t.Errorf("PageSize = %d", b.PageSize())
	}
	if _, err := cl.Handle(9999, 4096).Latest(ctx); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("Latest of a missing blob: %v", err)
	}
	info, err := b.Latest(ctx)
	if err != nil || info.Ver != 0 || info.Size != 0 {
		t.Errorf("fresh Latest = %+v, %v", info, err)
	}
}

func TestAppendRead(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 1024)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1, 4096) // 4 full pages
	res, err := b.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	ver := res.Ver
	if ver != 1 {
		t.Errorf("ver = %d", ver)
	}
	if res.Start != 0 || res.SizeAfter != 4096 {
		t.Errorf("result = %+v", res)
	}
	if _, err := b.WaitPublished(ctx, ver); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, 0, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch after append")
	}
	// Sub-range read crossing page boundaries.
	got, err = b.ReadAt(ctx, ver, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1000:3000]) {
		t.Fatal("sub-range read mismatch")
	}
}

func TestAppendPartialPage(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Unaligned appends force boundary merges.
	chunks := [][]byte{pattern(1, 100), pattern(2, 2000), pattern(3, 1), pattern(4, 1023), pattern(5, 5000)}
	var want []byte
	for _, ch := range chunks {
		if _, err := b.Append(ctx, ch); err != nil {
			t.Fatal(err)
		}
		want = append(want, ch...)
	}
	info, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != uint64(len(want)) {
		t.Fatalf("size = %d, want %d", info.Size, len(want))
	}
	got, err := b.ReadAt(ctx, 0, 0, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after unaligned appends")
	}
}

func TestVersionIsolation(t *testing.T) {
	// The core BlobSeer property: every published version remains
	// readable and immutable as new versions are appended.
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	var snapshots [][]byte
	var acc []byte
	for v := 1; v <= 10; v++ {
		chunk := pattern(byte(v), 512*3)
		if _, err := b.Append(ctx, chunk); err != nil {
			t.Fatal(err)
		}
		acc = append(acc, chunk...)
		snapshots = append(snapshots, append([]byte(nil), acc...))
	}
	if _, err := b.WaitPublished(ctx, 10); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 10; v++ {
		want := snapshots[v-1]
		got, err := b.ReadAt(ctx, uint64(v), 0, uint64(len(want)))
		if err != nil {
			t.Fatalf("read version %d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d content changed", v)
		}
	}
}

func TestWriteAt(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	base := pattern(1, 1024)
	if _, err := b.Append(ctx, base); err != nil {
		t.Fatal(err)
	}
	// Unaligned overwrite in the middle.
	patch := pattern(9, 300)
	wres, err := b.WriteAt(ctx, patch, 100)
	if err != nil {
		t.Fatal(err)
	}
	ver := wres.Ver
	if _, err := b.WaitPublished(ctx, ver); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	copy(want[100:], patch)
	got, err := b.ReadAt(ctx, ver, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("WriteAt merge mismatch")
	}
	// Old version still intact.
	got, err = b.ReadAt(ctx, 1, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("version 1 damaged by WriteAt")
	}
}

func TestWriteBeyondEOFReadsZeros(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, pattern(1, 128)); err != nil {
		t.Fatal(err)
	}
	wres, err := b.WriteAt(ctx, pattern(2, 128), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ver := wres.Ver
	if _, err := b.WaitPublished(ctx, ver); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, ver, 0, 1152)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:128], pattern(1, 128)) {
		t.Error("prefix damaged")
	}
	for i := 128; i < 1024; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, got[i])
		}
	}
	if !bytes.Equal(got[1024:], pattern(2, 128)) {
		t.Error("tail mismatch")
	}
}

func TestConcurrentAppendsDisjointAndComplete(t *testing.T) {
	// N clients append concurrently; the final BLOB must contain every
	// chunk exactly once, each contiguous (GFS-style record append:
	// the system picks the offset).
	c := newTestCluster(t, ClusterConfig{Providers: 8, MetaProviders: 3})
	const appenders = 16
	const chunkPages = 4
	const ps = 512

	cl0 := newTestClient(t, c, "cli-0")
	b0, err := cl0.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			cl := c.Client(fmt.Sprintf("cli-%d", a))
			defer cl.Close()
			b := cl.Handle(b0.ID(), ps)
			if _, err := b.Append(ctx, pattern(byte(a+1), chunkPages*ps)); err != nil {
				errs <- err
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := b0.WaitPublished(ctx, appenders); err != nil {
		t.Fatal(err)
	}
	info, err := b0.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := uint64(appenders * chunkPages * ps)
	if info.Size != wantSize {
		t.Fatalf("size = %d, want %d", info.Size, wantSize)
	}
	all, err := b0.ReadAt(ctx, 0, 0, wantSize)
	if err != nil {
		t.Fatal(err)
	}
	// Every appender's chunk appears exactly once, contiguous.
	seen := make(map[byte]int)
	for off := 0; off < len(all); off += chunkPages * ps {
		chunk := all[off : off+chunkPages*ps]
		// Identify the writer from the first byte pattern.
		var tag byte
		found := false
		for a := 1; a <= appenders; a++ {
			if bytes.Equal(chunk, pattern(byte(a), chunkPages*ps)) {
				tag, found = byte(a), true
				break
			}
		}
		if !found {
			t.Fatalf("chunk at %d matches no appender", off)
		}
		seen[tag]++
	}
	if len(seen) != appenders {
		t.Fatalf("saw %d distinct chunks, want %d", len(seen), appenders)
	}
	for tag, n := range seen {
		if n != 1 {
			t.Errorf("appender %d's chunk appears %d times", tag, n)
		}
	}
}

func TestConcurrentReadersDuringAppends(t *testing.T) {
	// Readers reading published versions must never observe errors or
	// torn data while appenders run — the property behind Figures 4/5.
	c := newTestCluster(t, ClusterConfig{Providers: 6, MetaProviders: 3})
	const ps = 256
	cl := newTestClient(t, c, "writer")
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Preload some data.
	if _, err := b.Append(ctx, pattern(1, ps*8)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make(chan error, 4)
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			rcl := c.Client(fmt.Sprintf("reader-%d", rdr))
			defer rcl.Close()
			rb := rcl.Handle(b.ID(), b.PageSize())
			for {
				select {
				case <-stop:
					return
				default:
				}
				info, err := rb.Latest(ctx)
				if err != nil {
					readErrs <- err
					return
				}
				if info.Size == 0 {
					continue
				}
				got, err := rb.ReadAt(ctx, info.Ver, 0, min(info.Size, ps*4))
				if err != nil {
					readErrs <- fmt.Errorf("read ver %d: %w", info.Ver, err)
					return
				}
				if len(got) == 0 {
					readErrs <- errors.New("empty read")
					return
				}
			}
		}(rdr)
	}

	for v := 2; v <= 12; v++ {
		if _, err := b.Append(ctx, pattern(byte(v), ps*4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WaitPublished(ctx, 12); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Fatal(err)
	}
}

func TestReadUnpublishedRejected(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, pattern(1, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(ctx, 5, 0, 10); !errors.Is(err, ErrNoSuchVersion) {
		t.Errorf("read of unassigned version: %v", err)
	}
}

func TestReadBeyondSize(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, pattern(1, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(ctx, 1, 50, 100); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read beyond size: %v", err)
	}
}

func TestEmptyAppendRejected(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, nil); !errors.Is(err, ErrEmptyWrite) {
		t.Errorf("empty append: %v", err)
	}
}

func TestPageReplicationSurvivesProviderLoss(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, ClientPolicy: ClientPolicy{PageReplicas: 2}})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(7, 512*8)
	if _, err := b.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Kill one provider; every page has a second replica elsewhere.
	c.Providers[0].Close()
	got, err := b.ReadAt(ctx, 1, 0, uint64(len(data)))
	if err != nil {
		t.Fatalf("read after provider loss: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after provider loss")
	}
}

// TestLeaseSealsAbandonedVersion: on a cluster whose every exported
// knob is at its default, a version whose writer never completes it is
// sealed one lease after its assignment, and the next version, which
// waits behind it, publishes. Only the lease is shortened, through the
// package's own field, so the test does not wait two minutes.
func TestLeaseSealsAbandonedVersion(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{lease: 200 * time.Millisecond})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	var a AssignResp
	if err := cl.pool.Call(ctx, c.VMs[0].Addr(), VMAssign,
		&AssignReq{Blob: b.ID(), Kind: KindAppend, Len: 256}, &a); err != nil {
		t.Fatal(err)
	}
	next, err := b.Append(ctx, pattern(2, 256))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := b.WaitPublished(wctx, next.Ver); err != nil {
		t.Fatalf("v%d behind the abandoned v%d never published: %v", next.Ver, a.Ver, err)
	}
	if info, err := b.GetVersion(ctx, a.Ver); err != nil || !info.Sealed {
		t.Fatalf("abandoned v%d = %+v, %v; want sealed", a.Ver, info, err)
	}
	readExact(t, b, next.Ver, 256, pattern(2, 256))
}

func TestSealUnblocksPublication(t *testing.T) {
	// A writer that dies after version assignment must not stall the
	// publication chain: the version manager seals it and later
	// versions publish.
	c := newTestCluster(t, ClusterConfig{Providers: 4, lease: 200 * time.Millisecond})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, pattern(1, 512)); err != nil {
		t.Fatal(err)
	}

	// Simulate a dead writer: assign a version and never complete it.
	var a AssignResp
	err = cl.pool.Call(ctx, c.VMs[0].Addr(), VMAssign,
		&AssignReq{Blob: b.ID(), Kind: KindAppend, Len: 512}, &a)
	if err != nil {
		t.Fatal(err)
	}

	// A healthy append afterwards.
	res3, err := b.Append(ctx, pattern(3, 512))
	if err != nil {
		t.Fatal(err)
	}
	ver3 := res3.Ver
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := b.WaitPublished(wctx, ver3); err != nil {
		t.Fatalf("version after dead writer never published: %v", err)
	}

	// The sealed region reads as zeros; surrounding data is intact.
	got, err := b.ReadAt(ctx, ver3, 0, 1536)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:512], pattern(1, 512)) {
		t.Error("data before sealed region damaged")
	}
	for i := 512; i < 1024; i++ {
		if got[i] != 0 {
			t.Fatalf("sealed byte %d = %d, want 0", i, got[i])
		}
	}
	if !bytes.Equal(got[1024:], pattern(3, 512)) {
		t.Error("data after sealed region damaged")
	}

	info, err := b.GetVersion(ctx, a.Ver)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sealed {
		t.Error("dead version not marked sealed")
	}
}

func TestExplicitAbort(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	var a AssignResp
	err = cl.pool.Call(ctx, c.VMs[0].Addr(), VMAssign,
		&AssignReq{Blob: b.ID(), Kind: KindAppend, Len: 256}, &a)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(ctx, a.Ver); err != nil {
		t.Fatal(err)
	}
	res2, err := b.Append(ctx, pattern(2, 256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res2.Ver); err != nil {
		t.Fatal(err)
	}
	// Complete after seal is rejected.
	err = cl.pool.Call(ctx, c.VMs[0].Addr(), VMComplete, &VersionRef{Blob: b.ID(), Ver: a.Ver}, nil)
	if !errors.Is(err, ErrVersionFinished) {
		t.Errorf("complete after seal: %v", err)
	}
}

func TestPageLocations(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, pattern(1, 256*8)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}
	locs, err := b.PageLocations(ctx, 0, 0, 256*8)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 8 {
		t.Fatalf("got %d locations", len(locs))
	}
	hosts := make(map[string]bool)
	for i, l := range locs {
		if l.Hole || len(l.Hosts) == 0 {
			t.Fatalf("loc %d = %+v", i, l)
		}
		for _, h := range l.Hosts {
			hosts[h] = true
		}
	}
	// Round-robin over 4 providers must touch all of them.
	if len(hosts) != 4 {
		t.Errorf("pages on %d hosts, want 4", len(hosts))
	}
}

func TestVMStats(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Append(ctx, pattern(byte(i), 256)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WaitPublished(ctx, 3); err != nil {
		t.Fatal(err)
	}
	var stats VMStatsResp
	if err := cl.pool.Call(ctx, c.VMs[0].Addr(), VMStats, nil, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Blobs != 1 || stats.Assigned != 3 || stats.Published != 3 || stats.Sealed != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSynthesizeStoreSizes(t *testing.T) {
	// The synthesize engine keeps experiments memory-flat but must
	// still report correct sizes and serve deterministic reads.
	c := newTestCluster(t, ClusterConfig{Store: StoreSynthesize})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, make([]byte, 512*4)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}
	a, err := b.ReadAt(ctx, 1, 0, 512*4)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.ReadAt(ctx, 1, 0, 512*4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, bb) {
		t.Error("synthesized reads not deterministic")
	}
}

func TestManyBlobsIndependent(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	blobs := make([]*Blob, 5)
	for i := range blobs {
		b, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
		if _, err := b.Append(ctx, pattern(byte(i+1), 256*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range blobs {
		if _, err := b.WaitPublished(ctx, 1); err != nil {
			t.Fatal(err)
		}
		want := pattern(byte(i+1), 256*(i+1))
		got, err := b.ReadAt(ctx, 0, 0, uint64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("blob %d content mismatch", i)
		}
	}
	var list ListBlobsResp
	if err := cl.pool.Call(ctx, c.VMs[0].Addr(), VMListBlobs, nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Blobs) != 5 {
		t.Errorf("ListBlobs = %v", list.Blobs)
	}
}
