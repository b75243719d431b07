package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

var ctx = context.Background()

// Every test of this package runs with released rpc frames overwritten
// with 0xDB: a datanode stores a block straight out of its request
// frame, so a block that aliases a recycled frame fails its content
// check.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

func newCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(transport.NewMemNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mountFS(t *testing.T, c *Cluster, host string, bs uint64) *FS {
	t.Helper()
	fs := c.Mount(host, bs)
	t.Cleanup(func() { fs.Close() })
	return fs
}

func pattern(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(tag)*41 + i*13)
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 4})
	fs := mountFS(t, c, "cli", 1024)
	data := pattern(1, 5000)
	if err := dfs.WriteFile(ctx, fs, "/in/file.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/in/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	fi, err := fs.Stat(ctx, "/in/file.txt")
	if err != nil || fi.Size != 5000 || fi.Blocks != 5 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
}

func TestAppendRejected(t *testing.T) {
	// The paper's premise: HDFS cannot append.
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 512)
	if err := dfs.WriteFile(ctx, fs, "/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append(ctx, "/f"); !errors.Is(err, dfs.ErrAppendNotSupported) {
		t.Fatalf("Append = %v, want ErrAppendNotSupported", err)
	}
}

func TestWriteOnceSemantics(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 512)
	if err := dfs.WriteFile(ctx, fs, "/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Re-creating an existing file fails.
	if _, err := fs.Create(ctx, "/f"); !errors.Is(err, dfs.ErrExists) {
		t.Errorf("re-create: %v", err)
	}
}

func TestUnderConstructionInvisible(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 512)
	w, err := fs.Create(ctx, "/wip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(1, 600)); err != nil {
		t.Fatal(err)
	}
	// Not yet closed: reads must fail (§2.2: visible only after close).
	if _, err := fs.Open(ctx, "/wip"); !errors.Is(err, dfs.ErrUnderConstruction) {
		t.Errorf("open under-construction: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/wip")
	if err != nil || !bytes.Equal(got, pattern(1, 600)) {
		t.Fatalf("after close: %v", err)
	}
}

func TestConcurrentWritersSeparateFiles(t *testing.T) {
	// The original-Hadoop pattern: each writer creates its own part
	// file ("concurrent writes to different files", §4.3).
	c := newCluster(t, ClusterConfig{Datanodes: 4})
	const writers = 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := c.Mount(fmt.Sprintf("host-%d", i), 256)
			defer fs.Close()
			path := fmt.Sprintf("/out/part-%05d", i)
			if err := dfs.WriteFile(ctx, fs, path, pattern(byte(i+1), 700)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fs := mountFS(t, c, "reader", 256)
	infos, err := fs.List(ctx, "/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != writers {
		t.Fatalf("List = %d entries", len(infos))
	}
	for i := 0; i < writers; i++ {
		got, err := dfs.ReadAll(ctx, fs, fmt.Sprintf("/out/part-%05d", i))
		if err != nil || !bytes.Equal(got, pattern(byte(i+1), 700)) {
			t.Fatalf("part %d: %v", i, err)
		}
	}
}

func TestRenameCommit(t *testing.T) {
	// The Hadoop output-committer dance: write temp, rename to final,
	// here over an earlier attempt's final file.
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 256)
	if err := dfs.WriteFile(ctx, fs, "/out/part-0", pattern(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/tmp/_attempt0/part-0", pattern(2, 300)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "/tmp/_attempt0/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/out/part-0")
	if err != nil || !bytes.Equal(got, pattern(2, 300)) {
		t.Fatalf("renamed file: %v", err)
	}
	// The replaced file's 4 blocks went with it, as on a delete.
	if pages, n := stored(c); pages != 2 || n != 300 {
		t.Errorf("datanodes hold %d blocks (%d B) after the rename, want the renamed file's 2 (300 B)", pages, n)
	}
}

// TestDeleteFreesBlocks: a delete, and a rename over an existing file,
// take the blocks that lost their name off every datanode holding a
// replica.
func TestDeleteFreesBlocks(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 3, Replicas: 2})
	fs := mountFS(t, c, "cli", 1<<10)
	for i, f := range []struct {
		path string
		size int
	}{{"/a", 5000}, {"/b", 3000}, {"/c", 2000}} {
		if err := dfs.WriteFile(ctx, fs, f.path, pattern(byte(i), f.size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete(ctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "/c", "/b"); err != nil {
		t.Fatal(err)
	}
	// /c's 2 blocks, 2 replicas each.
	if pages, n := stored(c); pages != 4 || n != 4000 {
		t.Errorf("datanodes hold %d blocks (%d B), want only the renamed file's 4 (4000 B)", pages, n)
	}
	got, err := dfs.ReadAll(ctx, fs, "/b")
	if err != nil || !bytes.Equal(got, pattern(2, 2000)) {
		t.Fatalf("renamed file: %v", err)
	}
}

// TestBlockPutAfterDeleteIsFreed: a block the namenode allocated before
// its file was deleted, and that the writer puts after the namenode freed
// the file's blocks, is deleted by the writer once the namenode's answer
// to its Complete says the file is gone. The namenode's answer to the
// AddBlock is held while another mount deletes the file; in "replaced",
// the other mount then creates and closes an empty file at the same
// path, which the writer's Complete must not take for its own.
func TestBlockPutAfterDeleteIsFreed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replaced bool
	}{{"deleted", false}, {"replaced", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			held, release := make(chan struct{}), make(chan struct{})
			net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, _ []byte) error {
				if c.LocalAddr().Service() == SvcNamenode && c.RemoteAddr().Host() == "cli" && armed.CompareAndSwap(true, false) {
					close(held)
					<-release
				}
				return nil
			})
			c, err := NewCluster(net, ClusterConfig{Datanodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			fs, other := mountFS(t, c, "cli", 1<<10), mountFS(t, c, "other", 1<<10)
			w, err := fs.Create(ctx, "/f")
			if err != nil {
				t.Fatal(err)
			}
			armed.Store(true) // the namenode's next answer to the writer is its AddBlock's
			written := make(chan error, 1)
			go func() {
				_, err := w.Write(pattern(1, 1<<10))
				written <- err
			}()
			<-held
			if err := other.Delete(ctx, "/f"); err != nil {
				t.Fatal(err)
			}
			close(release)
			if err := <-written; err != nil {
				t.Fatalf("the put of a block allocated before the delete: %v", err)
			}
			if tc.replaced {
				if err := dfs.WriteFile(ctx, other, "/f", nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); !errors.Is(err, dfs.ErrNotExist) {
				t.Errorf("Close of a deleted file = %v, want dfs.ErrNotExist", err)
			}
			if pages, n := stored(c); pages != 0 {
				t.Errorf("datanodes hold %d blocks (%d B) of a deleted file", pages, n)
			}
		})
	}
}

// stored counts the blocks and bytes every datanode holds.
func stored(c *Cluster) (pages int, n int64) {
	for _, d := range c.Datanodes {
		pages += d.Store().Len()
		n += d.Store().BytesUsed()
	}
	return pages, n
}

func TestBlockLocationsAndPlacement(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 4, Seed: 7})
	fs := mountFS(t, c, "cli", 256)
	if err := dfs.WriteFile(ctx, fs, "/f", pattern(1, 256*8)); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations(ctx, "/f", 0, 256*8)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 8 {
		t.Fatalf("got %d blocks", len(locs))
	}
	hosts := map[string]bool{}
	for _, l := range locs {
		if len(l.Hosts) != 1 {
			t.Fatalf("replicas = %d, want 1", len(l.Hosts))
		}
		hosts[l.Hosts[0]] = true
	}
	if len(hosts) < 2 {
		t.Errorf("random placement used only %d hosts", len(hosts))
	}
}

func TestReplicationSurvivesDatanodeLoss(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 4, Replicas: 2})
	fs := mountFS(t, c, "cli", 256)
	data := pattern(3, 256*6)
	if err := dfs.WriteFile(ctx, fs, "/f", data); err != nil {
		t.Fatal(err)
	}
	c.Datanodes[0].Close()
	got, err := dfs.ReadAll(ctx, fs, "/f")
	if err != nil {
		t.Fatalf("read after datanode loss: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after datanode loss")
	}
}

func TestMetadataEntriesCountBlocks(t *testing.T) {
	// The file-count problem made measurable: every block adds a
	// namenode record.
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 256)
	base, err := fs.MetadataEntries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/big/f", pattern(1, 256*10)); err != nil {
		t.Fatal(err)
	}
	after, err := fs.MetadataEntries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// dir + file + 10 block records.
	if after-base != 12 {
		t.Errorf("entries grew by %d, want 12", after-base)
	}
}

func TestReadAtAcrossBlocks(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 3})
	fs := mountFS(t, c, "cli", 256)
	data := pattern(5, 1000)
	if err := dfs.WriteFile(ctx, fs, "/f", data); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 400)
	if _, err := r.ReadAt(buf, 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[200:600]) {
		t.Fatal("ReadAt across blocks mismatch")
	}
	n, err := r.ReadAt(buf, 900)
	if n != 100 || err != io.EOF {
		t.Errorf("tail ReadAt = %d, %v", n, err)
	}
}

func TestStreamingCopy(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 3})
	fs := mountFS(t, c, "cli", 512)
	data := pattern(6, 40<<10)
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

func TestDeleteAndList(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 256)
	if err := dfs.WriteFile(ctx, fs, "/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/d"); !errors.Is(err, dfs.ErrNotEmpty) {
		t.Errorf("delete non-empty: %v", err)
	}
	if err := fs.Delete(ctx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List(ctx, "/d")
	if err != nil || len(infos) != 0 {
		t.Errorf("List after delete = %v, %v", infos, err)
	}
}

func TestEmptyFile(t *testing.T) {
	c := newCluster(t, ClusterConfig{Datanodes: 2})
	fs := mountFS(t, c, "cli", 256)
	if err := dfs.WriteFile(ctx, fs, "/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

// TestBlockAllocationBudget holds the baseline to BSFS's page budget
// (bsfs.TestAllocationBudget), process-wide on MemNet. On the write
// path a 64 KiB block may allocate a quarter block more than the one
// copy that outlives its frame, the datanode's stored block. A cold
// read copies each block into a pooled frame, the block the reader's
// dfs.BlockCursor holds, which it hands back when it moves to the next
// block, so a block read allocates no page at all: measured 238 B per
// block, held to 1 KiB. While the reader kept each response frame as its chunk it
// allocated 1.13 blocks per block read; datanodes with block messages
// of their own, which copied every block out of its frame, allocated
// 3.2 blocks per block written and 2.1 per block read.
func TestBlockAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	const block, blocks = 64 << 10, 16
	const budget, readBudget = block + block/4, 1 << 10
	c := newCluster(t, ClusterConfig{Datanodes: 4})
	fs := mountFS(t, c, "cli", block)
	data := pattern(1, blocks*block)
	write := func(path string) {
		w, err := fs.Create(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks; i++ {
			if _, err := w.Write(data[i*block : (i+1)*block]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, block)
	read := func(path string) {
		r, err := fs.Open(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < blocks; i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[i*block:(i+1)*block]) {
				t.Fatalf("%s: block %d read back wrong", path, i)
			}
		}
	}
	write("/warm") // fills rpc's frame pool
	if perBlock := allocated(func() { write("/budget") }) / blocks; perBlock > budget {
		t.Errorf("writing a file allocates %d B per 64 KiB block, budget %d: a block is being copied more than once", perBlock, budget)
	} else {
		t.Logf("write path: %d B allocated per 64 KiB block (budget %d)", perBlock, budget)
	}
	read("/warm")
	if perBlock := allocated(func() { read("/budget") }) / blocks; perBlock > readBudget {
		t.Errorf("reading a file allocates %d B per 64 KiB block, budget %d: a block is not read into a recycled frame", perBlock, readBudget)
	} else {
		t.Logf("read path: %d B allocated per 64 KiB block (budget %d)", perBlock, readBudget)
	}
}

// allocated returns the bytes the whole process (client and the
// in-process servers) allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
