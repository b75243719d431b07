package bsfs

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"

	"blobseer/internal/dht"
	"blobseer/internal/metrics"
	"blobseer/internal/transport"
)

// Every test of this package runs with released rpc frames and the
// writer's recycled block buffers overwritten with 0xDB: a block
// recycled while its pages are still being sent, or a page that
// aliases a recycled frame, fails its content check.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

// allocated returns the bytes and the objects the whole process
// (clients and the in-process servers) allocated while fn ran.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

const (
	budgetPage = 64 << 10
	// pageBudget is what one 64 KiB page may allocate per hop: the one
	// copy that outlives the frame (the provider's stored page on
	// write, the pooled frame the page cache holds on read), with a
	// quarter page of slack for size classes and allocator rounding.
	pageBudget = budgetPage + budgetPage/4
	// metaAllowance covers everything that is not page bytes: on the
	// write path one append (assign, segment-tree commit, complete); on
	// the read path the version lookup and slot resolution. Measured 9 KiB (on top of the 64 KiB stored
	// copy) and 12 KiB (on top of a response frame the allocator rounds
	// to 72 KiB); a second page-sized copy anywhere is five times
	// either. A run of four blocks is one append, so each of its pages
	// gets a quarter of the allowance.
	metaAllowance = 16 << 10
	// objectBudget is how many objects one block append may allocate,
	// whatever the page size and however deep the segment tree: the
	// metadata commit allocates per version and per member batch, never
	// per tree node (measured 30 to 31 at 288 pages and 29 at 4000; 40 to
	// 41 and 39 while the DHT client regrouped each batch into slabs of
	// its own and each provider decoded it into a []string and a
	// [][]byte, one more where a page kept a list of its acked replicas;
	// the per-node design this replaced cost 250, and an object per node
	// creeping back into the builder, the DHT client and both replicas'
	// decoders would add 60 at 4096 pages). This budget and the two
	// below sit 15 to 25 % above what they measure, so that one more
	// round trip on the path shows (the namespace size update that used
	// to end every append cost 5 to 7 objects, the provider-manager call
	// that used to follow every assignment 9).
	objectBudget = 38
	// runObjectBudget is the same for a Write of runBlocks blocks and
	// its Flush: one append plus the transfer of three more pages
	// (measured 41; 51 before the metadata batches were encoded and
	// decoded in place, 59 to 60 while each fan-out made its own
	// scaffolding and each page its list of acked replicas; four appends
	// of a block each cost 164).
	runBlocks       = 4
	runObjectBudget = 50
	// A record is a 1000-byte Write and its Flush onto a file of 16 KiB
	// blocks: an unaligned append, which stores a fragment of its own
	// bytes (measured 29 objects and 7.8 KiB here — 39 and 9.3 KiB before
	// the metadata batches were encoded and decoded in place, 40 before
	// the commit ran beside the put, 61 before a one-page transfer ran on
	// its caller — 64 and 7.1 KiB per op on the gated benchmark's
	// record_append before the metadata batches and journal records were
	// framed per message; the
	// boundary-page rewrite this replaced waited for the previous
	// version, read its page back and stored the whole prefix again: 207
	// objects and 53 KiB there).
	recordBlock        = 16 << 10
	recordLen          = 1000
	recordObjectBudget = 35
	recordByteBudget   = 16 << 10
	// A block of a snapshot one append younger than the file the mount
	// has read, its page no longer cached: the provider fetch and the
	// readahead beside it, and no metadata fetch, since the leaves it
	// names by address are older versions' and cached (measured 9 on one
	// CPU and 11 to 13 on more; 10 and 13 to 15 while a read descended
	// the tree behind a per-version slot cache, 19 before a one-page
	// transfer ran on its caller; walking the tree again for every block
	// of every new snapshot, as the client did before it cached nodes,
	// cost 330 on the gated read_under_append, which now reads 10).
	freshBlocks       = 64
	freshObjectBudget = 15
	// A block read cold through a mount whose cache is a quarter of the
	// file, on the second pass over it: the page's frame is the one a
	// page evicted before it gave back, so a block allocates only its
	// metadata (measured ≈ 0.7 KiB; 65 KiB while the cache kept each
	// page's response frame and eviction left it to the garbage
	// collector, and so while a reader keeps its block views).
	smallCache       = 1 << 20
	smallCacheBudget = 8 << 10
)

// TestAllocationBudget is the tier-1 guard on the data path's copies:
// bytes allocated per page on the write path (Write+Flush of one block,
// then of a four-block run) and on the cold read path, and objects per
// block of a fresh snapshot read by a mount that knows the file,
// process-wide on MemNet.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	d := newDeployment(t, budgetPage)
	fs := mount(t, d, "writer")
	fw, err := fs.Create(ctx, "/budget")
	if err != nil {
		t.Fatal(err)
	}
	w := fw.(*fileWriter)
	const warm, blocks = 32, 256
	block := func(i int) []byte { return pattern(byte(i), budgetPage) }
	write := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := w.Write(block(i)); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, warm)
	payloads := uint64(blocks * budgetPage) // block(i) itself, made inside the window
	written, objects := allocated(func() { write(warm, warm+blocks) })
	perPage := (written - payloads) / blocks
	t.Logf("write path: %d B allocated per 64 KiB page (budget %d)", perPage, pageBudget+metaAllowance)
	if perPage > pageBudget+metaAllowance {
		t.Errorf("write path allocates %d B per 64 KiB page, budget %d: a page is being copied more than once per hop", perPage, pageBudget+metaAllowance)
	}
	t.Logf("write path: %d objects allocated per block append (budget %d)", objects/blocks, objectBudget)
	if objects/blocks > objectBudget {
		t.Errorf("write path allocates %d objects per block append, budget %d", objects/blocks, objectBudget)
	}

	// The same blocks four to a Write: block i of the file is still
	// block(i), so the cold read below checks both halves.
	const runs = blocks / runBlocks
	run := make([]byte, 0, runBlocks*budgetPage)
	writeRuns := func(from, to int) {
		for i := from; i < to; i += runBlocks {
			run = run[:0]
			for j := i; j < i+runBlocks; j++ {
				run = append(run, block(j)...)
			}
			if _, err := w.Write(run); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeRuns(warm+blocks, 2*warm+blocks)
	written, objects = allocated(func() { writeRuns(2*warm+blocks, 2*(warm+blocks)) })
	perPage = (written - payloads) / blocks
	t.Logf("write path, %d-block runs: %d B allocated per 64 KiB page (budget %d)", runBlocks, perPage, pageBudget+metaAllowance/runBlocks)
	if perPage > pageBudget+metaAllowance/runBlocks {
		t.Errorf("a %d-block run allocates %d B per 64 KiB page, budget %d: the run's pages are being copied on their way into the append", runBlocks, perPage, pageBudget+metaAllowance/runBlocks)
	}
	t.Logf("write path, %d-block runs: %d objects allocated per run (budget %d)", runBlocks, objects/runs, runObjectBudget)
	if objects/runs > runObjectBudget {
		t.Errorf("a %d-block run allocates %d objects, budget %d", runBlocks, objects/runs, runObjectBudget)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recordBudget(t)
	smallCacheReadBudget(t)

	// Cold reads: a fresh mount, so every block comes from a provider.
	rfs := mount(t, d, "reader")
	r, err := rfs.Open(ctx, "/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, budgetPage)
	read := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, block(i)) {
				t.Fatalf("block %d read back wrong", i)
			}
		}
	}
	read(0, warm)
	read64k, _ := allocated(func() { read(warm, warm+blocks) })
	read(warm+blocks, 2*(warm+blocks)) // what the runs wrote
	perPage = (read64k - payloads) / blocks
	t.Logf("read path: %d B allocated per 64 KiB page (budget %d)", perPage, pageBudget+metaAllowance)
	if perPage > pageBudget+metaAllowance {
		t.Errorf("cold read path allocates %d B per 64 KiB page, budget %d: a page is being copied more than once per hop", perPage, pageBudget+metaAllowance)
	}
	if misses := rfs.BlobClient().ReadStats().Snapshot().ProviderFetches; misses < 2*(warm+blocks) {
		t.Errorf("only %d provider fetches for %d cold blocks: the read was not cold", misses, 2*(warm+blocks))
	}

	// The same mount opens the snapshot one more append makes and reads
	// blocks it no longer caches (the gated read_under_append in small):
	// it knows every tree node but the snapshot's root, so the open and
	// the reads together fetch metadata once, and a block costs its
	// provider fetch and little more.
	aw, err := fs.Append(ctx, "/budget")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.Write(block(0)); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	ent, err := rfs.lookup(ctx, "/budget")
	if err != nil {
		t.Fatal(err)
	}
	rfs.BlobClient().PageCache().PurgeBlob(ent.Blob)
	getBatches := func() uint64 { return metrics.Default.RPCClient.Snapshot()[dht.MethodGetBatch.Name].Calls }
	batches, fetches := getBatches(), rfs.BlobClient().ReadStats().Snapshot().ProviderFetches
	fr, err := rfs.Open(ctx, "/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.Size() != uint64(2*(warm+blocks)+1)*budgetPage {
		t.Fatalf("the fresh snapshot is %d bytes long", fr.Size())
	}
	_, objects = allocated(func() {
		for i := warm; i < warm+freshBlocks; i++ {
			if _, err := fr.ReadAt(buf, int64(i)*budgetPage); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, block(i)) {
				t.Fatalf("block %d of the fresh snapshot read back wrong", i)
			}
		}
	})
	objects -= freshBlocks // block(i) itself, made inside the window
	t.Logf("read path, fresh snapshot: %d objects allocated per cold block (budget %d)", objects/freshBlocks, freshObjectBudget)
	if objects/freshBlocks > freshObjectBudget {
		t.Errorf("a cold block of a fresh snapshot allocates %d objects, budget %d", objects/freshBlocks, freshObjectBudget)
	}
	if got := getBatches() - batches; got != 0 {
		t.Errorf("opening and reading the fresh snapshot made %d meta.GetBatch calls, want 0: the mount holds the leaf of every block it reads", got)
	}
	if got := rfs.BlobClient().ReadStats().Snapshot().ProviderFetches - fetches; got < freshBlocks {
		t.Errorf("only %d provider fetches for %d blocks of the fresh snapshot: the read was not cold", got, freshBlocks)
	}
}

// smallCacheReadBudget is TestAllocationBudget's line for a working set
// larger than the cache: what a block read cold allocates once
// eviction recycles page frames.
func smallCacheReadBudget(t *testing.T) {
	d := newDeployment(t, budgetPage)
	d.Blob.Cfg.CacheBytes = smallCache
	const blocks = 4 * smallCache / budgetPage
	data := writeBlocks(t, mount(t, d, "writer"), "/cold", budgetPage, blocks)
	fs := mount(t, d, "reader")
	buf := make([]byte, budgetPage)
	pass := func() {
		r, err := fs.Open(ctx, "/cold")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < blocks; i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[i*budgetPage:(i+1)*budgetPage]) {
				t.Fatalf("block %d read back wrong", i)
			}
		}
	}
	pass() // fills the cache and the frame pool
	fetches := fs.BlobClient().ReadStats().Snapshot().ProviderFetches
	read, _ := allocated(pass)
	t.Logf("read path, %d KiB cache: %d B allocated per cold 64 KiB block (budget %d)", smallCache>>10, read/blocks, smallCacheBudget)
	if read/blocks > smallCacheBudget {
		t.Errorf("a cold block read past a %d KiB cache allocates %d B, budget %d: evicted pages are not recycled", smallCache>>10, read/blocks, smallCacheBudget)
	}
	if got := fs.BlobClient().ReadStats().Snapshot().ProviderFetches - fetches; got < blocks {
		t.Errorf("only %d provider fetches for %d blocks: the second pass was not cold", got, blocks)
	}
}

// recordBudget is TestAllocationBudget's record line: what one small
// unaligned append may allocate, process-wide.
func recordBudget(t *testing.T) {
	d := newDeployment(t, recordBlock)
	fs := mount(t, d, "writer")
	fw, err := fs.Create(ctx, "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	w := fw.(*fileWriter)
	const warm, records = 64, 1024
	rec := pattern(7, recordLen)
	write := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(warm)
	written, objects := allocated(func() { write(records) })
	t.Logf("record append: %d objects and %d B allocated per %d-byte record (budgets %d and %d)", objects/records, written/records, recordLen, recordObjectBudget, recordByteBudget)
	if objects/records > recordObjectBudget {
		t.Errorf("a %d-byte record append allocates %d objects, budget %d", recordLen, objects/records, recordObjectBudget)
	}
	if written/records > recordByteBudget {
		t.Errorf("a %d-byte record append allocates %d B, budget %d: it is storing or reading more than its own bytes", recordLen, written/records, recordByteBudget)
	}
	if stored, user := d.Blob.ProviderBytes(), int64((warm+records)*recordLen); stored != user {
		t.Errorf("providers hold %d bytes for %d bytes of records", stored, user)
	}
}

// TestAppendCostFlatInVersionCount: an append must cost the same at
// version 4000 of a BLOB as at version 100 — the write-record history
// is shared, not copied per append.
func TestAppendCostFlatInVersionCount(t *testing.T) {
	if testing.Short() {
		t.Skip("4000 appends; allocation accounting is not meaningful under the race detector's short job")
	}
	const page = 1 << 10
	d := newDeployment(t, page)
	fs := mount(t, d, "writer")
	fw, err := fs.Create(ctx, "/long")
	if err != nil {
		t.Fatal(err)
	}
	w := fw.(*fileWriter)
	data := pattern(3, page)
	appendRange := func(n int) (bytes, objects uint64) {
		bytes, objects = allocated(func() {
			for i := 0; i < n; i++ {
				if _, err := w.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		})
		return bytes / uint64(n), objects / uint64(n)
	}
	appendRange(100)
	early, _ := appendRange(500) // versions 101..600
	appendRange(2900)
	late, lateObjects := appendRange(500) // versions 3501..4000
	t.Logf("allocated per append: %d B at versions 101-600, %d B and %d objects at versions 3501-4000", early, late, lateObjects)
	// Twelve tree levels deep, an append must still fit the budget of
	// one at the root: no object per tree node.
	if lateObjects > objectBudget {
		t.Errorf("an append allocates %d objects at version ~3750 (a 4096-page tree), budget %d", lateObjects, objectBudget)
	}
	// The segment tree is three levels deeper by then and the metadata
	// providers' node maps have doubled a few times (both logarithmic:
	// measured 16 KB against 23 KB). A history copied per append would
	// add 150 KB at version 3750 and 14 KB at version 350.
	if late > 2*early {
		t.Errorf("an append allocates %d B at version ~3750 but %d B at version ~350: cost grows with the version count", late, early)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Open(ctx, "/long")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	tail := make([]byte, page)
	if _, err := got.ReadAt(tail, 3999*page); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, data) {
		t.Fatal("the 4000th append read back wrong")
	}
}

// TestWriterRecyclesBlockBuffers: a writer owns at most WriteDepth+1
// block buffers however many blocks it writes and however its Write
// calls cut them into runs, and (with recycled buffers poisoned) every
// block still lands intact.
func TestWriterRecyclesBlockBuffers(t *testing.T) {
	const block, depth, blocks = 4 << 10, 3, 64
	d := newDeployment(t, block)
	d.WriteDepth = depth
	fs := mount(t, d, "cli")
	fw, err := fs.Create(ctx, "/recycled")
	if err != nil {
		t.Fatal(err)
	}
	w := fw.(*fileWriter)
	// Single blocks, a run shorter than the depth, a Write of several
	// runs, and two that leave and pick up a partial block.
	sizes := []int{block, block, 2 * block, 5 * block, block / 2, 3*block + block/2}
	var want []byte
	for i := 0; len(want) < blocks*block; i++ {
		p := pattern(byte(i), sizes[i%len(sizes)])
		want = append(want, p...)
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	owned := len(w.free) + 1 // the free list plus the buffer being filled
	w.mu.Unlock()
	if owned > depth+1 {
		t.Errorf("writer owns %d block buffers after %d blocks, want at most %d", owned, len(want)/block, depth+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(ctx, "/recycled")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch: a block buffer was recycled while its pages were in flight")
	}
}
