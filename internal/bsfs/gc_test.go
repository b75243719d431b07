package bsfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

// newGCDeployment is newDeployment with direct cluster access for
// provider-storage assertions.
func newGCDeployment(t *testing.T, blockSize uint64) (*blob.Cluster, *Deployment) {
	t.Helper()
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers: 4, MetaProviders: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: blockSize}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return cluster, d
}

// TestDeleteFreesProviderStorage is the regression test for the
// pre-GC leak: NamespaceManager.handleDelete dropped the namespace
// entry but left the backing BLOB's pages pinned on every provider
// forever. Deleting a file must now retire the BLOB and, after a
// reclaim pass, actually free provider storage.
func TestDeleteFreesProviderStorage(t *testing.T) {
	cluster, d := newGCDeployment(t, 1024)
	fs := mount(t, d, "cli")

	data := pattern(3, 8*1024)
	if err := dfs.WriteFile(ctx, fs, "/data/doomed", data); err != nil {
		t.Fatal(err)
	}
	before := cluster.ProviderBytes()
	if before == 0 {
		t.Fatal("expected provider storage before delete")
	}

	if err := fs.Delete(ctx, "/data/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GC.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cluster.ProviderBytes(); got != 0 {
		t.Errorf("provider bytes after delete = %d, want 0 (was %d)", got, before)
	}
	// The namespace entry is gone too.
	if _, err := fs.Stat(ctx, "/data/doomed"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("stat after delete = %v, want ErrNotExist", err)
	}
	// Re-creating the path works and reads back its own content.
	if err := dfs.WriteFile(ctx, fs, "/data/doomed", pattern(4, 2048)); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/data/doomed")
	if err != nil || !bytes.Equal(got, pattern(4, 2048)) {
		t.Fatalf("re-created file read: err=%v", err)
	}
}

// TestReaderPinBlocksCollection is the deterministic slow-reader test:
// an open reader pins its snapshot, so deleting the file and running a
// GC pass must NOT reclaim the version under it — the in-progress
// ReadAt finishes with perfect bytes. Closing the reader releases the
// pin and the next pass collects.
func TestReaderPinBlocksCollection(t *testing.T) {
	cluster, d := newGCDeployment(t, 1024)
	fs := mount(t, d, "cli")

	data := pattern(9, 6*1024)
	if err := dfs.WriteFile(ctx, fs, "/data/pinned", data); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open(ctx, "/data/pinned")
	if err != nil {
		t.Fatal(err)
	}
	// The slow read starts: one block consumed, the rest still pending.
	head := make([]byte, 1024)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}

	if err := fs.Delete(ctx, "/data/pinned"); err != nil {
		t.Fatal(err)
	}
	rep, err := d.GC.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PinsBlocked == 0 {
		t.Fatalf("expected the reader pin to block collection, report %+v", rep)
	}
	if cluster.ProviderBytes() == 0 {
		t.Fatal("pinned snapshot's pages were reclaimed under an open reader")
	}

	// The reader finishes its slow scan: every remaining byte correct.
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("pinned read failed mid-GC: %v", err)
	}
	if !bytes.Equal(append(head, rest...), data) {
		t.Fatal("pinned reader returned wrong bytes")
	}

	// Close releases the pin; the next pass reclaims everything.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GC.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cluster.ProviderBytes(); got != 0 {
		t.Errorf("provider bytes after reader close = %d, want 0", got)
	}
}

// TestShuffleStyleBlobRetirement: deleting one of two files frees only
// its own pages — the survivor stays fully readable.
func TestDeleteIsSelective(t *testing.T) {
	cluster, d := newGCDeployment(t, 1024)
	fs := mount(t, d, "cli")

	keep := pattern(1, 4096)
	if err := dfs.WriteFile(ctx, fs, "/data/keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/data/drop", pattern(2, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/data/drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GC.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cluster.ProviderBytes(); got != 4096 {
		t.Errorf("provider bytes = %d, want exactly the surviving file's 4096", got)
	}
	got, err := dfs.ReadAll(ctx, fs, "/data/keep")
	if err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("survivor read: err=%v", err)
	}
}

// TestRenameOntoFileRetiresItsBlob: a rename that replaces a file
// leaves the replaced file's BLOB without a name, so the namespace
// manager retires it, and a GC pass frees exactly its bytes.
func TestRenameOntoFileRetiresItsBlob(t *testing.T) {
	cluster, d := newGCDeployment(t, 1024)
	fs := mount(t, d, "cli")

	const replaced = 8 * 1024
	if err := dfs.WriteFile(ctx, fs, "/out/part-0", pattern(1, replaced)); err != nil {
		t.Fatal(err)
	}
	renamed := pattern(2, 1024)
	if err := dfs.WriteFile(ctx, fs, "/tmp/part-0", renamed); err != nil {
		t.Fatal(err)
	}
	before := cluster.ProviderBytes()
	if err := fs.Rename(ctx, "/tmp/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	// The retirement runs in the background: pass until it has landed.
	want := before - replaced
	for deadline := time.Now().Add(5 * time.Second); cluster.ProviderBytes() != want && time.Now().Before(deadline); {
		if _, err := d.GC.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := cluster.ProviderBytes(); got != want {
		t.Errorf("provider bytes after the rename and GC = %d, want %d: the replaced file's %d bytes freed", got, want, replaced)
	}
	got, err := dfs.ReadAll(ctx, fs, "/out/part-0")
	if err != nil || !bytes.Equal(got, renamed) {
		t.Fatalf("renamed file read: err=%v", err)
	}
}
