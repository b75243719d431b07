package bsfs

import (
	"bytes"
	"errors"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

// TestNamespaceRecoversFromJournal tears a durable deployment down and
// re-deploys on the same cluster: the namespace manager reopens
// namespace.log and must serve the exact pre-shutdown tree — sizes,
// content, a rename, and a delete all included. This is the filesystem
// half of the durable metadata plane; the version-manager half is
// covered by the blob package's journal tests.
func TestNamespaceRecoversFromJournal(t *testing.T) {
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers:     6,
		MetaProviders: 3,
		VMShards:      2,
		JournalDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}

	fs := d.Mount("recovery-cli")
	kept := pattern(3, 5000)
	if err := fs.Mkdir(ctx, "/warehouse/stage"); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/warehouse/stage/part-0", kept); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/warehouse/stage/part-1", pattern(4, 700)); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/scratch/tmp-0", pattern(5, 100)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "/warehouse/stage/part-0", "/warehouse/final"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "/scratch/tmp-0"); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Second deployment on the same cluster: nothing in memory carries
	// over, the tree comes back from the journal alone.
	d2, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: 1024}})
	if err != nil {
		t.Fatalf("redeploy on journaled cluster: %v", err)
	}
	defer d2.Close()
	fs2 := mount(t, d2, "recovery-cli-2")

	got, err := dfs.ReadAll(ctx, fs2, "/warehouse/final")
	if err != nil {
		t.Fatalf("read renamed file after recovery: %v", err)
	}
	if !bytes.Equal(got, kept) {
		t.Fatal("renamed file content diverged after recovery")
	}
	fi, err := fs2.Stat(ctx, "/warehouse/stage/part-1")
	if err != nil || fi.Size != 700 {
		t.Fatalf("Stat part-1 after recovery = %+v, %v", fi, err)
	}
	if _, err := fs2.Stat(ctx, "/warehouse/stage/part-0"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("rename source still present after recovery: %v", err)
	}
	if _, err := fs2.Stat(ctx, "/scratch/tmp-0"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("deleted file resurrected by recovery: %v", err)
	}
	ls, err := fs2.List(ctx, "/warehouse/stage")
	if err != nil || len(ls) != 1 || ls[0].Path != "/warehouse/stage/part-1" {
		t.Fatalf("List after recovery = %+v, %v", ls, err)
	}
}
