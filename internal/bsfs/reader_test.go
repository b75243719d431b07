package bsfs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"blobseer/internal/dfs"
)

// writeBlocks creates path holding n blocks of blockSize bytes.
func writeBlocks(t *testing.T, fs *FS, path string, blockSize, n int) []byte {
	t.Helper()
	data := pattern(21, blockSize*n)
	if err := dfs.WriteFile(ctx, fs, path, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHeldViewSurvivesEviction: a reader's block view stays valid while
// another reader of the mount evicts that block from the shared cache;
// its buffer is recycled only once the view is released.
func TestHeldViewSurvivesEviction(t *testing.T) {
	const block, blocks = 64 << 10, 32 // the file is twice the cache
	d := newDeployment(t, block)
	d.Blob.Cfg.CacheBytes = 1 << 20
	d.ReadDepth = -1 // every fetch is one a read asked for
	var data []byte
	for i := 0; i < blocks; i++ { // a recycled buffer shows another block's bytes
		data = append(data, pattern(byte(i), block)...)
	}
	if err := dfs.WriteFile(ctx, mount(t, d, "writer"), "/held", data); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, d, "reader")
	holder, err := fs.Open(ctx, "/held")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	head := make([]byte, block/2)
	if _, err := io.ReadFull(holder, head); err != nil {
		t.Fatal(err)
	}
	scanner, err := fs.Open(ctx, "/held")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, scanner); err != nil {
		t.Fatal(err)
	}
	scanner.Close()
	if ev := fs.BlobClient().ReadStats().Snapshot().Evictions; ev < blocks/2 {
		t.Fatalf("%d evictions: the scan did not push block 0 out of the cache", ev)
	}
	fetches := fs.BlobClient().ReadStats().Snapshot().ProviderFetches
	tail := make([]byte, block/2)
	if _, err := io.ReadFull(holder, tail); err != nil {
		t.Fatal(err)
	}
	if got := fs.BlobClient().ReadStats().Snapshot().ProviderFetches - fetches; got != 0 {
		t.Fatalf("the held view was fetched again (%d fetches)", got)
	}
	if !bytes.Equal(append(head, tail...), data[:block]) {
		t.Fatal("the held view of block 0 changed when the scan evicted it")
	}
}

func TestSequentialReadWithReadahead(t *testing.T) {
	d := newDeployment(t, 512)
	// Deployment zero-values leave ReadDepth at the default (4) and the
	// cache at its default budget.
	fs := mount(t, d, "cli")
	data := writeBlocks(t, fs, "/ra/seq", 512, 8)

	f, err := fs.Open(ctx, "/ra/seq")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential read through readahead mismatched")
	}
	f.Close() // drain outstanding prefetches before reading counters
	snap := fs.BlobClient().ReadStats().Snapshot()
	// The first block consumed fills the whole window, so at least
	// ReadDepth prefetches are scheduled over the scan. (How many beat
	// the reader to their block is timing-dependent; the invariant is
	// that racing reader and prefetcher never double-fetch a page.)
	if snap.Readahead < DefaultReadDepth {
		t.Errorf("readahead scheduled %d pages, want >= %d", snap.Readahead, DefaultReadDepth)
	}
	if snap.Misses != 8 || snap.ProviderFetches != 8 {
		t.Errorf("misses/fetches = %d/%d, want 8/8 (each block exactly once)",
			snap.Misses, snap.ProviderFetches)
	}
}

func TestReadaheadDisabled(t *testing.T) {
	d := newDeployment(t, 512)
	d.ReadDepth = -1 // synchronous reader
	fs := mount(t, d, "cli")
	data := writeBlocks(t, fs, "/ra/off", 512, 4)

	f, err := fs.Open(ctx, "/ra/off")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("synchronous read failed: %v", err)
	}
	if snap := fs.BlobClient().ReadStats().Snapshot(); snap.Readahead != 0 {
		t.Errorf("readahead = %d with ReadDepth disabled", snap.Readahead)
	}
}

func TestReaderCacheDisabled(t *testing.T) {
	d := newDeployment(t, 512)
	d.Blob.Cfg.CacheBytes = -1 // no cache; readahead implicitly off too
	fs := mount(t, d, "cli")
	data := writeBlocks(t, fs, "/ra/nocache", 512, 4)

	f, err := fs.Open(ctx, "/ra/nocache")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("uncached read failed: %v", err)
	}
	if snap := fs.BlobClient().ReadStats().Snapshot(); snap.Readahead != 0 {
		t.Errorf("readahead = %d with the cache disabled", snap.Readahead)
	}
}

func TestReadersShareMountCache(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	const blocks = 6
	data := writeBlocks(t, fs, "/ra/shared", 512, blocks)

	// First reader warms the mount's cache.
	f1, err := fs.Open(ctx, "/ra/shared")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first read failed: %v", err)
	}
	f1.Close()
	warm := fs.BlobClient().ReadStats().Snapshot()
	if warm.ProviderFetches != blocks {
		t.Fatalf("cold scan fetched %d pages, want %d", warm.ProviderFetches, blocks)
	}

	// A second reader of the same mount must be served from the cache.
	f2, err := fs.Open(ctx, "/ra/shared")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got, err := io.ReadAll(f2); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second read failed: %v", err)
	}
	after := fs.BlobClient().ReadStats().Snapshot()
	if d := after.ProviderFetches - warm.ProviderFetches; d != 0 {
		t.Errorf("second reader issued %d provider RPCs, want 0 (shared cache)", d)
	}
}

func TestReaderCloseStopsReads(t *testing.T) {
	d := newDeployment(t, 512)
	fs := mount(t, d, "cli")
	writeBlocks(t, fs, "/ra/close", 512, 4)

	f, err := fs.Open(ctx, "/ra/close")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(buf); err == nil {
		t.Error("Read succeeded on a closed reader")
	}
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Error("ReadAt succeeded on a closed reader")
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestReaderCloseCancelsOutstandingReadahead opens a reader over a
// file far longer than the readahead window, touches the first block,
// and closes immediately: Close must return promptly (cancelling
// in-flight prefetches) rather than waiting for the whole window to
// transfer.
func TestReaderCloseCancelsOutstandingReadahead(t *testing.T) {
	d := newDeployment(t, 512)
	d.ReadDepth = 8
	fs := mount(t, d, "cli")
	writeBlocks(t, fs, "/ra/cancel", 512, 32)

	f, err := fs.Open(ctx, "/ra/cancel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on outstanding readahead")
	}
}

func TestReadAtThroughCachePatterns(t *testing.T) {
	// The Map/Reduce record readers issue sequential sub-block ReadAt
	// calls; every block must be fetched exactly once.
	d := newDeployment(t, 1024)
	fs := mount(t, d, "cli")
	const blocks = 4
	data := writeBlocks(t, fs, "/ra/records", 1024, blocks)

	f, err := fs.Open(ctx, "/ra/records")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	step := 100
	out := make([]byte, 0, len(data))
	buf := make([]byte, step)
	for off := 0; off < len(data); off += step {
		n, err := f.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		out = append(out, buf[:n]...)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("stitched ReadAt stream mismatched")
	}
	snap := fs.BlobClient().ReadStats().Snapshot()
	if snap.Misses != blocks {
		t.Errorf("misses = %d, want %d (each block fetched once)", snap.Misses, blocks)
	}
}

// TestReaderRefreshSeesGrowth re-checks the Refresh contract under the
// cache-backed reader: a reader following an appender must see the new
// bytes after Refresh, and previously-read blocks stay valid.
func TestReaderRefreshSeesGrowth(t *testing.T) {
	d := newDeployment(t, 256)
	fs := mount(t, d, "cli")
	first := []byte(strings.Repeat("a", 300))
	if err := dfs.WriteFile(ctx, fs, "/ra/grow", first); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(ctx, "/ra/grow")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, first) {
		t.Fatalf("initial read failed: %v", err)
	}

	w, err := fs.Append(ctx, "/ra/grow")
	if err != nil {
		t.Fatal(err)
	}
	second := []byte(strings.Repeat("b", 300))
	if _, err := w.Write(second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	size, err := f.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != 600 {
		t.Fatalf("size after refresh = %d, want 600", size)
	}
	tail := make([]byte, 300)
	if _, err := f.ReadAt(tail, 300); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, second) {
		t.Error("refreshed reader missed appended bytes")
	}
}
