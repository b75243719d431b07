package bsfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

var ctx = context.Background()

// newDeployment spins up BlobSeer + BSFS with small blocks for tests.
func newDeployment(t *testing.T, blockSize uint64) *Deployment {
	t.Helper()
	return newDeploymentOn(t, transport.NewMemNet(), blob.ClusterConfig{}, blockSize)
}

// newDeploymentOn is newDeployment over the caller's network and with
// the caller's cluster settings (the node counts stay the tests' 6+3).
func newDeploymentOn(t *testing.T, net transport.Network, cfg blob.ClusterConfig, blockSize uint64) *Deployment {
	t.Helper()
	cfg.Providers, cfg.MetaProviders = 6, 3
	cluster, err := blob.NewCluster(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: blockSize}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// heldAcks is a fault seam over a fresh in-process network: once a test
// stores a hook in ack, every frame the servers of service svc send
// first runs it, in the handler's goroutine — after the page is stored,
// before the client hears so. Blocking there is a node that stored the
// page and whose acknowledgement is still on its way.
func heldAcks(svc string) (net transport.Network, ack *atomic.Pointer[func()]) {
	ack = new(atomic.Pointer[func()])
	return transport.OnSend(transport.NewMemNet(), func(c transport.Conn, _ []byte) error {
		if hold := ack.Load(); hold != nil && c.LocalAddr().Service() == svc {
			(*hold)()
		}
		return nil
	}), ack
}

func mount(t *testing.T, d *Deployment, host string) *FS {
	t.Helper()
	fs := d.Mount(host)
	t.Cleanup(func() { fs.Close() })
	return fs
}

func pattern(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(tag)*37 + i*11)
	}
	return out
}

func TestCreateWriteRead(t *testing.T) {
	d := newDeployment(t, 1024)
	fs := mount(t, d, "cli")
	data := pattern(1, 5000) // crosses block boundaries, partial tail
	if err := dfs.WriteFile(ctx, fs, "/data/input.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/data/input.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	fi, err := fs.Stat(ctx, "/data/input.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 5000 || fi.IsDir {
		t.Errorf("Stat = %+v", fi)
	}
}

// TestCreateRacingParentDelete: a create releases the namespace lock
// while the version manager creates the file's BLOB. A Delete of the
// new, still empty parent in that window must not leave the file
// behind without its directory: the create makes the parent again.
func TestCreateRacingParentDelete(t *testing.T) {
	net, ack := heldAcks(blob.SvcVersionManager)
	d := newDeploymentOn(t, net, blob.ClusterConfig{}, 512)
	fs := mount(t, d, "cli")

	// Hold the version manager's first answer: the BLOB exists, the
	// namespace manager is waiting for it with its lock released.
	var once sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	hold := func() { once.Do(func() { close(held); <-release }) }
	ack.Store(&hold)
	created := make(chan error, 1)
	go func() {
		w, err := fs.Create(ctx, "/a/f")
		if err == nil {
			if _, err = w.Write([]byte("x")); err == nil {
				err = w.Close()
			}
		}
		created <- err
	}()
	<-held
	if err := fs.Delete(ctx, "/a"); err != nil {
		t.Fatalf("delete the empty parent: %v", err)
	}
	close(release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}

	if fi, err := fs.Stat(ctx, "/a"); err != nil || !fi.IsDir {
		t.Errorf("Stat(/a) = %+v, %v; want the directory", fi, err)
	}
	if infos, err := fs.List(ctx, "/"); err != nil || len(infos) != 1 || infos[0].Path != "/a" {
		t.Errorf("List(/) = %+v, %v; want /a", infos, err)
	}
	if got, err := dfs.ReadAll(ctx, fs, "/a/f"); err != nil || string(got) != "x" {
		t.Errorf("ReadAll(/a/f) = %q, %v", got, err)
	}
}

func TestCreateExclusive(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/f"); !errors.Is(err, dfs.ErrExists) {
		t.Errorf("second create: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	if _, err := fs.Open(ctx, "/nope"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("open missing: %v", err)
	}
	if _, err := fs.Stat(ctx, "/nope"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("stat missing: %v", err)
	}
}

func TestAppendGrowsFile(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/log", pattern(1, 700)); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Append(ctx, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(2, 900)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	want := append(pattern(1, 700), pattern(2, 900)...)
	if !bytes.Equal(got, want) {
		t.Fatal("append content mismatch")
	}
}

func TestAppendCreatesFile(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	w, err := fs.Append(ctx, "/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/fresh")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestConcurrentAppendersSharedFile(t *testing.T) {
	// The paper's modified-Hadoop pattern: many writers append blocks
	// to one shared file; every block must appear exactly once.
	d := newDeployment(t, 256)
	const writers = 8
	const blocksPerWriter = 4

	// Create the shared file up front.
	fs0 := mount(t, d, "host-0")
	w0, err := fs0.Create(ctx, "/shared/out")
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := d.Mount(fmt.Sprintf("host-%d", i))
			defer fs.Close()
			w, err := fs.Append(ctx, "/shared/out")
			if err != nil {
				errs <- err
				return
			}
			for blk := 0; blk < blocksPerWriter; blk++ {
				if _, err := w.Write(pattern(byte(i*blocksPerWriter+blk+1), 256)); err != nil {
					errs <- err
					return
				}
			}
			if err := w.Close(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := dfs.ReadAll(ctx, fs0, "/shared/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*blocksPerWriter*256 {
		t.Fatalf("size = %d", len(got))
	}
	seen := map[byte]bool{}
	for off := 0; off < len(got); off += 256 {
		blk := got[off : off+256]
		var tag byte
		found := false
		for k := 1; k <= writers*blocksPerWriter; k++ {
			if bytes.Equal(blk, pattern(byte(k), 256)) {
				tag, found = byte(k), true
				break
			}
		}
		if !found {
			t.Fatalf("block at %d matches no writer", off)
		}
		if seen[tag] {
			t.Fatalf("block %d duplicated", tag)
		}
		seen[tag] = true
	}
}

func TestReaderSnapshotAndRefresh(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/log", pattern(1, 512)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(ctx, "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != 512 {
		t.Fatalf("Size = %d", r.Size())
	}

	// Append while the reader holds its snapshot.
	w, err := fs.Append(ctx, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(2, 512)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot still sees the old size.
	if r.Size() != 512 {
		t.Errorf("snapshot size changed to %d", r.Size())
	}
	buf := make([]byte, 512)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pattern(1, 512)) {
		t.Error("snapshot content wrong")
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Errorf("read past snapshot: %v", err)
	}

	// Refresh sees the appended data and can keep reading — the
	// §5 pipeline scenario (readers follow appenders).
	size, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != 1024 {
		t.Fatalf("refreshed size = %d", size)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pattern(2, 512)) {
		t.Error("refreshed content wrong")
	}
}

func TestReadAt(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	data := pattern(3, 1000)
	if err := dfs.WriteFile(ctx, fs, "/f", data); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 450); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[450:550]) {
		t.Error("ReadAt content mismatch")
	}
	// Tail read returns io.EOF with partial data.
	n, err := r.ReadAt(buf, 950)
	if n != 50 || err != io.EOF {
		t.Errorf("tail ReadAt = %d, %v", n, err)
	}
}

func TestListAndMkdir(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := fs.Mkdir(ctx, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/a/b/f1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/a/b/f2", []byte("yy")); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Path != "/a/b/f1" || infos[1].Path != "/a/b/f2" {
		t.Errorf("List order = %v, %v", infos[0].Path, infos[1].Path)
	}
	// Listing a file fails.
	if _, err := fs.List(ctx, "/a/b/f1"); !errors.Is(err, dfs.ErrNotDir) {
		t.Errorf("List(file) = %v", err)
	}
	// Root listing includes /a.
	root, err := fs.List(ctx, "/")
	if err != nil || len(root) != 1 || root[0].Path != "/a" {
		t.Errorf("List(/) = %v, %v", root, err)
	}
}

func TestRename(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/tmp/part-0", pattern(1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "/tmp/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "/tmp/part-0"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("src after rename: %v", err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/out/part-0")
	if err != nil || !bytes.Equal(got, pattern(1, 300)) {
		t.Fatalf("dst after rename: %v", err)
	}
	if err := fs.Rename(ctx, "/missing", "/x"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("rename missing: %v", err)
	}
}

func TestDelete(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/dir/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/dir"); !errors.Is(err, dfs.ErrNotEmpty) {
		t.Errorf("delete non-empty dir: %v", err)
	}
	if err := fs.Delete(ctx, "/dir/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/dir"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("delete missing: %v", err)
	}
}

func TestBlockLocations(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/f", pattern(1, 256*4+100)); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations(ctx, "/f", 0, 256*5)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 5 {
		t.Fatalf("got %d blocks", len(locs))
	}
	var total uint64
	for i, l := range locs {
		if len(l.Hosts) == 0 {
			t.Errorf("block %d has no hosts", i)
		}
		if l.Offset != uint64(i)*256 {
			t.Errorf("block %d offset = %d", i, l.Offset)
		}
		total += l.Length
	}
	if total != 256*4+100 {
		t.Errorf("total length = %d", total)
	}
}

func TestMetadataEntriesCountsNamespaceOnly(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	base, err := fs.MetadataEntries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One file with many blocks adds exactly one namespace entry
	// (plus its parent dir): block metadata lives in the DHT.
	if err := dfs.WriteFile(ctx, fs, "/big/file", pattern(1, 256*40)); err != nil {
		t.Fatal(err)
	}
	after, err := fs.MetadataEntries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after-base != 2 {
		t.Errorf("entries grew by %d, want 2 (dir + file)", after-base)
	}
}

func TestWriterAfterClose(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	w, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, fs, "/empty", nil); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat(ctx, "/empty")
	if err != nil || fi.Size != 0 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestLargeStreamingCopy(t *testing.T) {
	d := newDeployment(t, 1024)
	fs := mount(t, d, "cli")
	data := pattern(5, 64<<10)
	if err := dfs.WriteFile(ctx, fs, "/big", data); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("streamed copy mismatch")
	}
}

//
// Pipelined-writer tests: up to Config.WriteDepth blocks in flight.
//

// TestPipelinedWriterKeepsBlockOrder writes a many-block file through a
// deep pipeline; the file must read back exactly in write order, since
// version assignment stays serialized in the writer's goroutine.
func TestPipelinedWriterKeepsBlockOrder(t *testing.T) {
	d := newDeployment(t, 512)
	d.WriteDepth = 8
	fs := mount(t, d, "cli")
	data := pattern(3, 20*512+100) // 20 full blocks plus a partial tail
	if err := dfs.WriteFile(ctx, fs, "/pipelined", data); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/pipelined")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pipelined write content mismatch")
	}
}

// TestPipelinedConcurrentAppendersRecordsIntact runs several pipelined
// writers appending records of one block, and every fourth of three
// blocks, to one shared file: every record must appear exactly once,
// intact — the blocks of a three-block Write adjacent, since a Write of
// up to WriteDepth whole blocks is one append — and each writer's
// records must keep their relative order.
func TestPipelinedConcurrentAppendersRecordsIntact(t *testing.T) {
	const writers, records, block = 8, 12, 256
	span := func(ri int) int { // blocks in a writer's record ri
		if ri%4 == 3 {
			return 3
		}
		return 1
	}
	total := 0
	for ri := 0; ri < records; ri++ {
		total += writers * span(ri) * block
	}
	d := newDeployment(t, block)
	d.WriteDepth = 4
	setup := mount(t, d, "cli")
	if err := dfs.WriteFile(ctx, setup, "/shared", nil); err != nil {
		t.Fatal(err)
	}
	mounts := make([]*FS, writers)
	for i := range mounts {
		mounts[i] = mount(t, d, fmt.Sprintf("w%d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w, err := mounts[wi].Append(ctx, "/shared")
			if err != nil {
				errs <- err
				return
			}
			for ri := 0; ri < records; ri++ {
				rec := bytes.Repeat([]byte{byte(wi*records + ri)}, span(ri)*block)
				if _, err := w.Write(rec); err != nil {
					errs <- err
					w.Close()
					return
				}
			}
			if err := w.Close(); err != nil {
				errs <- err
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := dfs.ReadAll(ctx, setup, "/shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("file size = %d, want %d", len(got), total)
	}
	seen := make(map[byte]int)   // record tag -> occurrences
	lastRec := make(map[int]int) // writer -> last record index seen
	for off := 0; off < len(got); {
		tag := got[off]
		wi, ri := int(tag)/records, int(tag)%records
		n := span(ri) * block
		if off+n > len(got) {
			t.Fatalf("record %d at %d: %d bytes, file ends at %d", tag, off, n, len(got))
		}
		for k := 1; k < n; k++ {
			if got[off+k] != tag {
				t.Fatalf("record at %d torn: byte %d is %d, want %d", off, k, got[off+k], tag)
			}
		}
		seen[tag]++
		if last, ok := lastRec[wi]; ok && ri < last {
			t.Fatalf("writer %d record %d appeared after record %d", wi, ri, last)
		}
		lastRec[wi] = ri
		off += n
	}
	if len(seen) != writers*records {
		t.Fatalf("distinct records = %d, want %d", len(seen), writers*records)
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("record %d appeared %d times", tag, n)
		}
	}
}

// TestPipelinedFlushDrains verifies Flush blocks until every in-flight
// block is complete, so Stat and List both report all of them.
func TestPipelinedFlushDrains(t *testing.T) {
	const block = 256
	d := newDeployment(t, block)
	d.WriteDepth = 8
	fs := mount(t, d, "cli")
	w, err := fs.Create(ctx, "/drain")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := pattern(5, 6*block)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.(dfs.Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
	// All six blocks completed, so they also all published (versions
	// publish in order) and the size is authoritative immediately.
	fi, err := fs.Stat(ctx, "/drain")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 6*block {
		t.Fatalf("size after Flush = %d, want %d", fi.Size, 6*block)
	}
	// List reports the same snapshot Stat does.
	infos, err := fs.List(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0] != fi {
		t.Fatalf("List after Flush = %+v, want [%+v]", infos, fi)
	}
}

// TestPipelinedWriterErrorPropagation fails the data path of in-flight
// runs and verifies the failure surfaces through Write, Flush and Close
// rather than being swallowed by the pipeline, and that the pipeline
// gets its slots back.
func TestPipelinedWriterErrorPropagation(t *testing.T) {
	t.Run("cancelled context", func(t *testing.T) {
		const block = 256
		d := newDeployment(t, block)
		d.WriteDepth = 4
		fs := mount(t, d, "cli")
		cctx, cancel := context.WithCancel(ctx)
		w, err := fs.Create(cctx, "/doomed")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(pattern(1, block)); err != nil {
			t.Fatal(err)
		}
		cancel()
		// The next run cannot start (assignment fails on the dead
		// context) or a prior run's failure has already been recorded.
		deadline := time.Now().Add(5 * time.Second)
		var werr error
		for werr == nil && time.Now().Before(deadline) {
			_, werr = w.Write(pattern(2, 3*block))
		}
		if werr == nil {
			t.Fatal("no error surfaced after context cancellation")
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close reported success after a failed pipeline")
		}
		if n := len(w.(*fileWriter).sem); n != 0 {
			t.Errorf("%d pipeline slots still taken after Close", n)
		}
	})

	// The providers go away after the first page of a 4-block run is
	// stored. The run's slots come back, its buffers are recycled, and
	// the writer reports the failure instead of waiting for a slot.
	t.Run("providers closed mid-run", func(t *testing.T) {
		const block, depth = 256, 4
		net, ack := heldAcks(blob.SvcProvider)
		d := newDeploymentOn(t, net, blob.ClusterConfig{}, block)
		d.WriteDepth = depth
		fs := mount(t, d, "cli")
		fw, err := fs.Create(ctx, "/doomed-run")
		if err != nil {
			t.Fatal(err)
		}
		w := fw.(*fileWriter)

		// One page on every provider first, so the mount holds a live
		// connection to each and closing them fails its calls.
		if _, err := w.Write(pattern(0, len(d.Blob.Providers)*block)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		// The provider that stores the first page acknowledges it; the
		// others hold their acknowledgement until the run has failed on
		// their closed connections.
		var first atomic.Bool
		stored, failed := make(chan struct{}), make(chan struct{})
		hold := func() {
			if first.CompareAndSwap(false, true) {
				close(stored)
				return
			}
			<-failed
		}
		ack.Store(&hold)
		if _, err := w.Write(pattern(1, depth*block)); err != nil {
			t.Fatal(err)
		}
		<-stored
		var closing sync.WaitGroup
		for _, p := range d.Blob.Providers {
			closing.Add(1)
			go func() {
				defer closing.Done()
				p.Close() // cuts the connections, then waits for the handlers
			}()
		}
		ferr := w.Flush()
		close(failed)
		closing.Wait()
		if ferr == nil {
			t.Fatal("Flush reported success after the run's pages were lost")
		}
		if n := len(w.sem); n != 0 {
			t.Errorf("%d pipeline slots still taken after the failed run drained", n)
		}
		st := fs.BlockRecycling()
		if class := int64(transport.ClassSize(block)); st.Held != class || st.Free != depth*class {
			t.Errorf("mount holds %d B of block buffers and has %d B free after the failed run, want the writer's one block held and its run's %d back", st.Held, st.Free, depth)
		}
		// Later calls keep reporting the first error.
		if _, err := w.Write(pattern(2, depth*block)); err != ferr {
			t.Errorf("Write after the failure = %v, want %v", err, ferr)
		}
		if err := w.Flush(); err != ferr {
			t.Errorf("second Flush = %v, want %v", err, ferr)
		}
		if err := w.Close(); err != ferr {
			t.Errorf("Close = %v, want %v", err, ferr)
		}
		if n := len(w.sem); n != 0 {
			t.Errorf("%d pipeline slots still taken after Close", n)
		}
		if held := fs.BlockRecycling().Held; held != 0 {
			t.Errorf("mount holds %d B of block buffers after Close", held)
		}
	})
}
