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
// content, a rename, a rename onto itself, and a delete all included. This is the filesystem
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
	if err := fs.Rename(ctx, "/warehouse/stage/part-1", "/warehouse/stage/part-1"); err != nil {
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

// TestWriterNeedsNamespaceOnlyToOpen: once open, a writer talks to
// BlobSeer alone, so nothing that happens to the file's name, or to the
// namespace manager, fails appends the version manager has acked.
func TestWriterNeedsNamespaceOnlyToOpen(t *testing.T) {
	const block = 256
	first, second := pattern(1, 2*block+40), pattern(2, 3*block)
	// write sends p as whole runs and a flushed tail.
	write := func(t *testing.T, w dfs.FileWriter, p []byte) {
		t.Helper()
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	readBack := func(t *testing.T, fs *FS, path string) {
		t.Helper()
		got, err := dfs.ReadAll(ctx, fs, path)
		if want := append(first[:len(first):len(first)], second...); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s reads back %d bytes (%v), want the %d written", path, len(got), err, len(want))
		}
	}

	t.Run("file renamed mid-write", func(t *testing.T) {
		fs := mount(t, newDeployment(t, block), "cli")
		w, err := fs.Create(ctx, "/attempt")
		if err != nil {
			t.Fatal(err)
		}
		write(t, w, first)
		if err := fs.Rename(ctx, "/attempt", "/committed"); err != nil {
			t.Fatal(err)
		}
		write(t, w, second)
		if err := w.Close(); err != nil {
			t.Fatalf("Close after the file was renamed: %v", err)
		}
		readBack(t, fs, "/committed")
	})

	t.Run("namespace manager stopped mid-write", func(t *testing.T) {
		cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
			Providers: 6, MetaProviders: 3, JournalDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		d, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: block}})
		if err != nil {
			t.Fatal(err)
		}
		fs := d.Mount("cli")
		defer fs.Close()
		w, err := fs.Create(ctx, "/log")
		if err != nil {
			t.Fatal(err)
		}
		write(t, w, first)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(ctx, "/log"); err == nil {
			t.Fatal("Stat answered with the namespace manager stopped")
		}
		write(t, w, second)
		if err := w.Close(); err != nil {
			t.Fatalf("Close with the namespace manager stopped: %v", err)
		}

		d2, err := Deploy(cluster, DeployConfig{Tuning: Tuning{BlockSize: block}})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		readBack(t, mount(t, d2, "cli-2"), "/log")
	})
}
