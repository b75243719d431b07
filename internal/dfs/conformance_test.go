package dfs_test

// Conformance battery: the same behavioural tests run against every
// dfs.FileSystem backend (BSFS and HDFS), pinning down the semantics
// the Map/Reduce framework relies on — and the one deliberate
// divergence, append support.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/transport"
)

var ctx = context.Background()

// Every test of this package runs with released rpc frames overwritten
// with 0xDB: both backends' data nodes store a put page straight out of
// its request frame, so a block that aliases a recycled frame fails its
// content check.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

const confBlock = 1 << 10

// backend describes one FS under test.
type backend struct {
	name          string
	appendSupport bool
	mk            func(t *testing.T) dfs.FileSystem
}

func backends() []backend {
	return []backend{
		{
			name:          "bsfs",
			appendSupport: true,
			mk: func(t *testing.T) dfs.FileSystem {
				cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
					Providers: 4, MetaProviders: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cluster.Close() })
				d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: confBlock}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
				fs := d.Mount("conf-cli")
				t.Cleanup(func() { fs.Close() })
				return fs
			},
		},
		{
			name:          "hdfs",
			appendSupport: false,
			mk: func(t *testing.T) dfs.FileSystem {
				cluster, err := hdfs.NewCluster(transport.NewMemNet(), hdfs.ClusterConfig{Datanodes: 4})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cluster.Close() })
				fs := cluster.Mount("conf-cli", confBlock)
				t.Cleanup(func() { fs.Close() })
				return fs
			},
		},
	}
}

// forEachBackend runs fn once per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, b backend, fs dfs.FileSystem)) {
	for _, b := range backends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			fn(t, b, b.mk(t))
		})
	}
}

func confPattern(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(tag)*53 + i*17)
	}
	return out
}

func TestConformanceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		for _, size := range []int{0, 1, confBlock - 1, confBlock, confBlock + 1, 5 * confBlock, 5*confBlock + 100} {
			path := fmt.Sprintf("/rt/size-%d", size)
			data := confPattern(byte(size%250), size)
			if err := dfs.WriteFile(ctx, fs, path, data); err != nil {
				t.Fatalf("write %d: %v", size, err)
			}
			got, err := dfs.ReadAll(ctx, fs, path)
			if err != nil {
				t.Fatalf("read %d: %v", size, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip %d bytes: mismatch", size)
			}
			fi, err := fs.Stat(ctx, path)
			if err != nil || fi.Size != uint64(size) {
				t.Fatalf("stat %d: %+v, %v", size, fi, err)
			}
		}
	})
}

func TestConformanceNamespace(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		// Implicit parents.
		if err := dfs.WriteFile(ctx, fs, "/a/b/c/file", []byte("x")); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat(ctx, "/a/b")
		if err != nil || !fi.IsDir {
			t.Fatalf("implicit parent: %+v, %v", fi, err)
		}
		// Create over a directory fails.
		if _, err := fs.Create(ctx, "/a/b"); err == nil {
			t.Error("create over directory succeeded")
		}
		// File as path component fails.
		if err := dfs.WriteFile(ctx, fs, "/a/b/c/file/sub", []byte("y")); err == nil {
			t.Error("file used as directory")
		}
		// Duplicate create fails.
		if _, err := fs.Create(ctx, "/a/b/c/file"); !errors.Is(err, dfs.ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
		// List ordering is lexicographic.
		for i, n := range []string{"/a/z", "/a/m", "/a/k"} {
			if err := dfs.WriteFile(ctx, fs, n, confPattern(3, i*1500)); err != nil {
				t.Fatal(err)
			}
		}
		infos, err := fs.List(ctx, "/a")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, fi := range infos {
			names = append(names, fi.Path)
			// A file's List entry is its Stat.
			if st, err := fs.Stat(ctx, fi.Path); !fi.IsDir && (err != nil || fi != st) {
				t.Errorf("List entry %+v, Stat %+v, %v", fi, st, err)
			}
		}
		want := []string{"/a/b", "/a/k", "/a/m", "/a/z"}
		if len(names) != len(want) {
			t.Fatalf("list = %v", names)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("list order = %v", names)
			}
		}
		// A directory with entries is not deleted; a file is not a
		// directory to make or list through.
		if err := fs.Delete(ctx, "/a/b"); !errors.Is(err, dfs.ErrNotEmpty) {
			t.Errorf("delete non-empty directory: %v", err)
		}
		if err := fs.Mkdir(ctx, "/a/z/sub"); !errors.Is(err, dfs.ErrNotDir) {
			t.Errorf("mkdir through a file: %v", err)
		}
		if _, err := fs.List(ctx, "/a/z"); !errors.Is(err, dfs.ErrNotDir) {
			t.Errorf("list a file: %v", err)
		}
	})
}

func TestConformanceRenameSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		if err := dfs.WriteFile(ctx, fs, "/src", confPattern(1, 100)); err != nil {
			t.Fatal(err)
		}
		// Rename into a new implicit directory.
		if err := fs.Rename(ctx, "/src", "/deep/dst"); err != nil {
			t.Fatal(err)
		}
		got, err := dfs.ReadAll(ctx, fs, "/deep/dst")
		if err != nil || !bytes.Equal(got, confPattern(1, 100)) {
			t.Fatalf("after rename: %v", err)
		}
		// Rename replaces an existing destination (committer semantics).
		if err := dfs.WriteFile(ctx, fs, "/v2", confPattern(2, 50)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(ctx, "/v2", "/deep/dst"); err != nil {
			t.Fatal(err)
		}
		got, err = dfs.ReadAll(ctx, fs, "/deep/dst")
		if err != nil || !bytes.Equal(got, confPattern(2, 50)) {
			t.Fatalf("replace rename: %v", err)
		}
		// Renaming a directory is rejected.
		if err := fs.Mkdir(ctx, "/dir"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(ctx, "/dir", "/dir2"); !errors.Is(err, dfs.ErrIsDir) {
			t.Errorf("dir rename: %v", err)
		}
		// So is renaming onto a directory, or from a missing source.
		if err := fs.Rename(ctx, "/deep/dst", "/dir"); !errors.Is(err, dfs.ErrIsDir) {
			t.Errorf("rename onto a directory: %v", err)
		}
		if err := fs.Rename(ctx, "/missing", "/dst2"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("rename a missing source: %v", err)
		}
		// A file renamed onto itself stays readable.
		if err := fs.Rename(ctx, "/deep/dst", "/deep/dst"); err != nil {
			t.Errorf("rename onto itself: %v", err)
		}
		got, err = dfs.ReadAll(ctx, fs, "/deep/dst")
		if err != nil || !bytes.Equal(got, confPattern(2, 50)) {
			t.Fatalf("after renaming onto itself: %v", err)
		}
	})
}

func TestConformanceAppendDivergence(t *testing.T) {
	// The paper's point, as a conformance case: the interface exposes
	// Append everywhere, but only BSFS implements it.
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		if err := dfs.WriteFile(ctx, fs, "/log", []byte("one\n")); err != nil {
			t.Fatal(err)
		}
		w, err := fs.Append(ctx, "/log")
		if !b.appendSupport {
			if !errors.Is(err, dfs.ErrAppendNotSupported) {
				t.Fatalf("append on %s: %v", b.name, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("two\n")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := dfs.ReadAll(ctx, fs, "/log")
		if err != nil || string(got) != "one\ntwo\n" {
			t.Fatalf("appended file = %q, %v", got, err)
		}
	})
}

func TestConformanceReaderAt(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		data := confPattern(5, 4*confBlock+77)
		if err := dfs.WriteFile(ctx, fs, "/f", data); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Random-access patterns, including block-straddling reads.
		for _, c := range []struct{ off, n int }{
			{0, 10}, {confBlock - 5, 10}, {2*confBlock + 1, 2 * confBlock},
			{len(data) - 3, 3}, {0, len(data)},
		} {
			buf := make([]byte, c.n)
			n, err := f.ReadAt(buf, int64(c.off))
			if err != nil && err != io.EOF {
				t.Fatalf("ReadAt(%d,%d): %v", c.off, c.n, err)
			}
			if !bytes.Equal(buf[:n], data[c.off:c.off+n]) {
				t.Fatalf("ReadAt(%d,%d): mismatch", c.off, c.n)
			}
		}
		// Past-EOF read.
		if _, err := f.ReadAt(make([]byte, 1), int64(len(data))); err != io.EOF {
			t.Errorf("past-EOF ReadAt: %v", err)
		}
	})
}

// TestConformanceClosedReader: a reader reads nothing after Close, not
// even the block it still had: Read and ReadAt fail with an error that
// wraps io/fs.ErrClosed.
func TestConformanceClosedReader(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		if err := dfs.WriteFile(ctx, fs, "/f", confPattern(6, 2*confBlock)); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 100)
		if _, err := f.Read(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := f.Read(p); !errors.Is(err, iofs.ErrClosed) {
			t.Errorf("Read after Close = %d, %v; want fs.ErrClosed", n, err)
		}
		if n, err := f.ReadAt(p, 0); !errors.Is(err, iofs.ErrClosed) {
			t.Errorf("ReadAt after Close = %d, %v; want fs.ErrClosed", n, err)
		}
	})
}

func TestConformanceBlockLocations(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		data := confPattern(6, 4*confBlock)
		if err := dfs.WriteFile(ctx, fs, "/f", data); err != nil {
			t.Fatal(err)
		}
		locs, err := fs.BlockLocations(ctx, "/f", 0, uint64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 4 {
			t.Fatalf("%d blocks", len(locs))
		}
		var total uint64
		for _, l := range locs {
			if len(l.Hosts) == 0 {
				t.Error("block without hosts")
			}
			total += l.Length
		}
		if total != uint64(len(data)) {
			t.Errorf("coverage = %d", total)
		}
		// Sub-range query returns only overlapping blocks.
		locs, err = fs.BlockLocations(ctx, "/f", confBlock, confBlock)
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 1 || locs[0].Offset != confBlock {
			t.Errorf("sub-range locations = %+v", locs)
		}
	})
}

func TestConformanceErrors(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		if _, err := fs.Open(ctx, "/missing"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("open missing: %v", err)
		}
		if _, err := fs.Stat(ctx, "/missing"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("stat missing: %v", err)
		}
		if err := fs.Delete(ctx, "/missing"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("delete missing: %v", err)
		}
		if _, err := fs.List(ctx, "/missing"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("list missing: %v", err)
		}
		if _, err := fs.Open(ctx, "relative/path"); !errors.Is(err, dfs.ErrInvalidPath) {
			t.Errorf("invalid path: %v", err)
		}
		if err := fs.Delete(ctx, "/"); !errors.Is(err, dfs.ErrInvalidPath) {
			t.Errorf("delete the root: %v", err)
		}
	})
}

// TestConformanceUncleanPaths: every call below spells its path
// uncleanly, and the namespace server cleans it as the request
// decodes. An HDFS writer names its file again in every AddBlock.
func TestConformanceUncleanPaths(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		data := confPattern(8, 3*confBlock+7)
		if err := dfs.WriteFile(ctx, fs, "//u/./v//f", data); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat(ctx, "/u//v/./f")
		if err != nil || fi.Path != "/u/v/f" || fi.Size != uint64(len(data)) || fi.Blocks != 4 {
			t.Fatalf("Stat = %+v, %v", fi, err)
		}
		got, err := dfs.ReadAll(ctx, fs, "/./u/v//f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadAll: %v", err)
		}
		infos, err := fs.List(ctx, "//u/v/")
		if err != nil || len(infos) != 1 || infos[0].Path != "/u/v/f" || infos[0].Size != uint64(len(data)) {
			t.Fatalf("List = %+v, %v", infos, err)
		}
		if err := fs.Rename(ctx, "/u/v/./f", "//w/./g"); err != nil {
			t.Fatal(err)
		}
		if got, err := dfs.ReadAll(ctx, fs, "/w/g"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("renamed file: %v", err)
		}
		if _, err := fs.Stat(ctx, "/u/v/f"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("Stat of the rename's source: %v", err)
		}
		if err := fs.Mkdir(ctx, "/x//y/."); err != nil {
			t.Fatal(err)
		}
		if fi, err := fs.Stat(ctx, "/x/y"); err != nil || !fi.IsDir {
			t.Errorf("Stat of the made directory = %+v, %v", fi, err)
		}
		if err := fs.Delete(ctx, "//w/g/"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(ctx, "/w/g"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("Stat after Delete: %v", err)
		}
	})
}

// TestConformanceConcurrentNamespace: 8 goroutines each run 50 mixed
// creates, mkdirs, renames (over files, across directories) and deletes
// in three shared directories. An op may lose a race and fail with a
// namespace error (a writer's own errors are not checked); afterwards
// the tree must be whole: every file a walk
// of List from "/" finds answers Stat, every entry sits in the
// directory that listed it, and MetadataEntries counts exactly what
// the walk found, "/" included (plus each file's blocks on HDFS, whose
// namenode keeps the block map). An entry the walk cannot reach, or a
// name left on a deleted file, breaks the count.
func TestConformanceConcurrentNamespace(t *testing.T) {
	const workers, opsEach = 8, 50
	var files, subdirs []string
	for _, d := range []string{"/c/d0", "/c/d1", "/c/d2"} {
		files = append(files, d+"/f0", d+"/f1", d+"/f2", d+"/s/f0", d+"/s/f1")
		subdirs = append(subdirs, d+"/s")
	}
	all := append(slices.Clip(files), subdirs...)
	// expected are the errors an op that lost a race may return.
	expected := []error{dfs.ErrNotExist, dfs.ErrExists, dfs.ErrIsDir, dfs.ErrNotDir,
		dfs.ErrNotEmpty, dfs.ErrUnderConstruction, dfs.ErrVersionGone}
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w + 1)))
				pick := func(from []string) string { return from[rng.Intn(len(from))] }
				for range opsEach {
					var err error
					switch rng.Intn(4) {
					case 0:
						var fw dfs.FileWriter
						if fw, err = fs.Create(ctx, pick(files)); err == nil {
							// Another worker may delete or replace the
							// file under its writer, which then fails
							// with its backend's own error: unchecked.
							fw.Write(confPattern(byte(w), rng.Intn(3*confBlock)))
							fw.Close()
						}
					case 1:
						err = fs.Mkdir(ctx, pick(subdirs))
					case 2:
						err = fs.Rename(ctx, pick(files), pick(files))
					case 3:
						err = fs.Delete(ctx, pick(all))
					}
					if err != nil && !slices.ContainsFunc(expected, func(e error) bool { return errors.Is(err, e) }) {
						t.Errorf("worker %d: %v", w, err)
					}
				}
			}()
		}
		wg.Wait()

		walked, blocks := uint64(1), uint64(0)
		var walk func(dir string)
		walk = func(dir string) {
			infos, err := fs.List(ctx, dir)
			if err != nil {
				t.Fatalf("List %s: %v", dir, err)
			}
			for _, fi := range infos {
				walked++
				if dfs.Parent(fi.Path) != dir {
					t.Errorf("List %s returned %s", dir, fi.Path)
				}
				if fi.IsDir {
					walk(fi.Path)
					continue
				}
				st, err := fs.Stat(ctx, fi.Path)
				if err != nil || st.IsDir {
					t.Errorf("Stat %s = %+v, %v", fi.Path, st, err)
				}
				blocks += st.Blocks
			}
		}
		walk("/")
		want := walked
		if b.name == "hdfs" {
			want += blocks
		}
		if n, err := fs.MetadataEntries(ctx); err != nil || n != want {
			t.Errorf("MetadataEntries = %d, %v; the walk found %d entries and %d blocks", n, err, walked, blocks)
		}
	})
}

func TestConformanceSequentialStreaming(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		data := confPattern(7, 10*confBlock+123)
		if err := dfs.WriteFile(ctx, fs, "/big", data); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if f.Size() != uint64(len(data)) {
			t.Fatalf("Size = %d", f.Size())
		}
		var out bytes.Buffer
		n, err := io.CopyBuffer(&out, f, make([]byte, 333)) // odd buffer size
		if err != nil || n != int64(len(data)) {
			t.Fatalf("copy = %d, %v", n, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("stream mismatch")
		}
	})
}

func TestConformanceVersioning(t *testing.T) {
	// The snapshot capability, probed the way the framework does it: a
	// type assertion, true for BSFS and false for HDFS.
	forEachBackend(t, func(t *testing.T, b backend, fs dfs.FileSystem) {
		if err := dfs.WriteFile(ctx, fs, "/v/log", []byte("one\n")); err != nil {
			t.Fatal(err)
		}
		// The package-level helpers answer the sentinel for any
		// FileSystem value without the capability.
		if _, err := dfs.OpenVersion(ctx, unversionedOnly{fs}, "/v/log", 1); !errors.Is(err, dfs.ErrVersionsNotSupported) {
			t.Errorf("helper OpenVersion on plain FS: %v", err)
		}
		vfs, ok := dfs.AsVersioned(fs)

		if !b.appendSupport {
			// HDFS: one version axis short — it lacks the capability,
			// and Stat has no version to report.
			if ok {
				t.Fatalf("%s exposes dfs.VersionedFileSystem", b.name)
			}
			if _, err := dfs.OpenVersion(ctx, fs, "/v/log", 1); !errors.Is(err, dfs.ErrVersionsNotSupported) {
				t.Errorf("OpenVersion: %v", err)
			}
			fi, err := fs.Stat(ctx, "/v/log")
			if err != nil || fi.Version != 0 {
				t.Errorf("Stat.Version = %d, %v", fi.Version, err)
			}
			return
		}
		if !ok {
			t.Fatalf("%s does not expose dfs.VersionedFileSystem", b.name)
		}

		// BSFS: every append published a snapshot; round-trip them.
		w, err := fs.Append(ctx, "/v/log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("two\n")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat(ctx, "/v/log")
		if err != nil || fi.Version != 2 || fi.Size != 8 {
			t.Fatalf("Stat = %+v, %v", fi, err)
		}
		infos, err := vfs.Versions(ctx, "/v/log")
		if err != nil || len(infos) != 2 {
			t.Fatalf("Versions = %+v, %v", infos, err)
		}
		if infos[0].Version != 1 || infos[0].Size != 4 || infos[1].Version != 2 || infos[1].Size != 8 {
			t.Fatalf("history = %+v", infos)
		}
		r, err := vfs.OpenVersion(ctx, "/v/log", 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Version() != 1 || r.Size() != 4 {
			t.Errorf("reader: version %d size %d", r.Version(), r.Size())
		}
		buf := make([]byte, 4)
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(buf) != "one\n" {
			t.Errorf("snapshot 1 = %q", buf)
		}
		// A fixed-version reader never moves: Refresh is a no-op.
		if n, err := r.Refresh(ctx); err != nil || n != 4 {
			t.Errorf("fixed Refresh = %d, %v", n, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// WaitVersion returns the first snapshot newer than `after`.
		vi, err := vfs.WaitVersion(ctx, "/v/log", 0)
		if err != nil || vi.Version != 1 {
			t.Errorf("WaitVersion(0) = %+v, %v", vi, err)
		}
		vi, err = vfs.WaitVersion(ctx, "/v/log", 1)
		if err != nil || vi.Version != 2 || vi.Size != 8 {
			t.Errorf("WaitVersion(1) = %+v, %v", vi, err)
		}
		// Locations resolved at the historical snapshot cover exactly
		// its bytes.
		locs, err := vfs.BlockLocationsAt(ctx, "/v/log", 1, 0, 64)
		if err != nil || len(locs) == 0 {
			t.Fatalf("BlockLocationsAt = %+v, %v", locs, err)
		}
		var total uint64
		for _, l := range locs {
			total += l.Length
		}
		if total != 4 {
			t.Errorf("locations at v1 cover %d bytes, want 4", total)
		}
		// A version never published maps to the stable namespace error.
		if _, err := vfs.OpenVersion(ctx, "/v/log", 99); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("OpenVersion(99) = %v", err)
		}
	})
}

// unversionedOnly strips the capability interface from a FileSystem so
// the package-level helpers' type-assertion fallback is exercised.
type unversionedOnly struct{ dfs.FileSystem }

func TestConformanceVersionAfterGC(t *testing.T) {
	// BSFS-specific by construction (HDFS has neither versions nor a
	// collector): under RetainLatest(1), an unpinned old snapshot is
	// collected and its versioned open answers the stable
	// dfs.ErrVersionGone — while a reader that pinned the snapshot
	// before collection keeps reading it byte-identically.
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers: 4, MetaProviders: 2, Retain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: confBlock}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	fs := d.Mount("conf-gc-cli")
	t.Cleanup(func() { fs.Close() })

	if err := dfs.WriteFile(ctx, fs, "/gc/log", []byte("first state\n")); err != nil {
		t.Fatal(err)
	}
	r1, err := fs.OpenVersion(ctx, "/gc/log", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, err := fs.Append(ctx, "/gc/log")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "growth %d\n", i)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Collector pass with the pin held: v1 must stay readable.
	if _, err := d.GC.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, r1.Size())
	if _, err := r1.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("pinned snapshot read after GC pass: %v", err)
	}
	if string(buf) != "first state\n" {
		t.Fatalf("pinned snapshot = %q", buf)
	}

	// Pin released: the next pass collects v1 and the versioned open
	// reports it gone with the exported sentinel.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GC.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenVersion(ctx, "/gc/log", 1); !errors.Is(err, dfs.ErrVersionGone) {
		t.Fatalf("OpenVersion of collected snapshot = %v, want dfs.ErrVersionGone", err)
	}
	// The retention window shrank to the surviving latest version.
	infos, err := fs.Versions(ctx, "/gc/log")
	if err != nil || len(infos) != 1 || infos[0].Version != 4 {
		t.Fatalf("Versions after GC = %+v, %v", infos, err)
	}
}
