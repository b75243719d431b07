package mapreduce_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"blobseer/internal/apps/wordcount"
	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/shuffle"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

// Released frames are overwritten in every test of this package: a map
// partition an append still read after AppendMap returned, or a page
// frame recycled under a fetch, shows up as 0xDB bytes and fails a
// segment's checksum instead of passing by luck.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

// newBSFSEnvSlots is newBSFSEnv with explicit per-tracker slot counts
// (the overlap tests cap map slots to force multi-wave map phases).
func newBSFSEnvSlots(t *testing.T, hosts, mapSlots, reduceSlots int) *env {
	t.Helper()
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
		Providers: hosts, MetaProviders: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: testBlock}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:         cluster.Net,
		Hosts:       cluster.ProviderHosts(),
		Mount:       func(host string) dfs.FileSystem { return d.Mount(host) },
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	return &env{fw: fw, fs: fw.ClientFS()}
}

// TestBlobShuffleWordcount runs wordcount with intermediate data in
// per-partition BLOBs, for both output committers, and checks the
// segment accounting: one segment per (map, reducer) appended and
// fetched, none recovered (no failure injected).
func TestBlobShuffleWordcount(t *testing.T) {
	for _, mode := range []mapreduce.OutputMode{mapreduce.SeparateFiles, mapreduce.SharedAppend} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newBSFSEnv(t, 6)
			text := workload.Text(20<<10, 43)
			if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
				t.Fatal(err)
			}
			job := wordcount.Job([]string{"/in/text"}, "/out", 4, mode)
			job.Shuffle = shuffle.Blob
			res, err := e.fw.Run(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			checkWordcount(t, e, res, text)
			want := uint64(res.MapTasks * res.ReduceTasks)
			if res.SegmentsAppended != want {
				t.Errorf("SegmentsAppended = %d, want %d", res.SegmentsAppended, want)
			}
			if res.SegmentsFetched != want {
				t.Errorf("SegmentsFetched = %d, want %d", res.SegmentsFetched, want)
			}
			if res.SegmentsRecovered != 0 || res.MapOutputsLost != 0 {
				t.Errorf("recovered = %d, lost = %d on a failure-free run",
					res.SegmentsRecovered, res.MapOutputsLost)
			}
			if res.FirstShuffleFetch <= 0 {
				t.Errorf("FirstShuffleFetch = %v", res.FirstShuffleFetch)
			}
		})
	}
}

// TestBlobShuffleOverlapsMapPhase pins the tentpole's scheduling
// property: with the blob backend, reducers fetch their first segments
// while later map waves are still running — the shuffle overlaps the
// map phase instead of starting after it.
func TestBlobShuffleOverlapsMapPhase(t *testing.T) {
	// One map slot per tracker and ~30 block-sized splits force a map
	// phase of several waves; modeled per-record cost stretches each
	// wave well past the first segment fetch.
	e := newBSFSEnvSlots(t, 6, 1, 2)
	text := workload.Text(30<<10, 47)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 3, mapreduce.SeparateFiles)
	job.Shuffle = shuffle.Blob
	job.MapCostPerRecord = 100 * time.Microsecond
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	checkWordcount(t, e, res, text)
	if res.FirstShuffleFetch <= 0 {
		t.Fatal("no shuffle fetch recorded")
	}
	if res.FirstShuffleFetch >= res.MapPhase {
		t.Errorf("first segment fetched at %v, after the map phase ended (%v): no overlap",
			res.FirstShuffleFetch, res.MapPhase)
	}
}

// killAtBarrier returns a MapsDoneHook killing the given trackers the
// moment every map has finished — the point where intermediate data is
// the only thing keeping the job alive.
func killAtBarrier(e *env, idx ...int) func() {
	return func() {
		for _, i := range idx {
			e.fw.Trackers()[i].Kill()
		}
	}
}

// TestBlobShuffleSurvivesTrackerDeath is the tentpole's failure-
// semantics claim: trackers die after their maps complete, and the job
// still finishes with ZERO map re-runs because every map output lives
// in replicated, immutable BLOB segments — tracker death is a
// non-event for the shuffle. Compare TestMemoryShuffleRerunsMaps.
func TestBlobShuffleSurvivesTrackerDeath(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(30<<10, 53)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 8, mapreduce.SeparateFiles)
	job.Shuffle = shuffle.Blob
	job.MapsDoneHook = killAtBarrier(e, 1, 2, 3, 4)
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatalf("job failed despite durable shuffle: %v", err)
	}
	checkWordcount(t, e, res, text)
	if res.MapOutputsLost != 0 {
		t.Errorf("MapOutputsLost = %d, want 0 (blob segments survive tracker death)", res.MapOutputsLost)
	}
	if res.SegmentsRecovered == 0 {
		t.Error("no segments recovered: the killed trackers' outputs were never needed post-mortem")
	}
}

// TestMemoryShuffleRerunsMaps is the baseline the blob backend beats:
// the same barrier kill under the memory backend loses the dead
// trackers' outputs and forces map re-execution.
func TestMemoryShuffleRerunsMaps(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(30<<10, 53)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/text"}, "/out", 8, mapreduce.SeparateFiles)
	job.MapsDoneHook = killAtBarrier(e, 1, 2, 3, 4)
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatalf("job failed despite re-execution: %v", err)
	}
	checkWordcount(t, e, res, text)
	if res.MapOutputsLost == 0 {
		t.Error("MapOutputsLost = 0: the kill cost the memory backend nothing?")
	}
}

// TestBlobShuffleRequiresBlobMount: the durable backend needs a
// BlobSeer-backed file system; on HDFS the job must fail up front with
// a clear error, like shared-append output does.
func TestBlobShuffleRequiresBlobMount(t *testing.T) {
	e := newHDFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/x", []byte("a b\n")); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/x"}, "/out", 2, mapreduce.SeparateFiles)
	job.Shuffle = shuffle.Blob
	_, err := e.fw.Run(ctx, job)
	if err == nil || !strings.Contains(err.Error(), "BlobSeer-backed") {
		t.Fatalf("err = %v, want blob-mount requirement", err)
	}
}

// TestBlobShuffleEmptyInput: zero maps means zero segments; reducers
// must still complete and commit empty outputs.
func TestBlobShuffleEmptyInput(t *testing.T) {
	e := newBSFSEnv(t, 3)
	if err := dfs.WriteFile(ctx, e.fs, "/in/empty", nil); err != nil {
		t.Fatal(err)
	}
	job := wordcount.Job([]string{"/in/empty"}, "/out", 2, mapreduce.SeparateFiles)
	job.Shuffle = shuffle.Blob
	res, err := e.fw.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsAppended != 0 || res.SegmentsFetched != 0 {
		t.Errorf("segments on empty input: %+v", res)
	}
	if len(res.OutputFiles) != 2 {
		t.Errorf("output files = %v (want 2 empty parts)", res.OutputFiles)
	}
}

// TestBlobShufflePipeline runs the §5 two-stage pipeline with durable
// intermediate data in both stages (streaming splits exercise the
// late-bound map count of the segment index).
func TestBlobShufflePipeline(t *testing.T) {
	e := newBSFSEnv(t, 6)
	text := workload.Text(15<<10, 59)
	if err := dfs.WriteFile(ctx, e.fs, "/in/text", []byte(text)); err != nil {
		t.Fatal(err)
	}
	stage1 := wordcount.Job([]string{"/in/text"}, "/s1", 3, mapreduce.SharedAppend)
	stage1.Shuffle = shuffle.Blob
	stage2 := wordcount.Job(nil, "/s2", 2, mapreduce.SharedAppend)
	stage2.Shuffle = shuffle.Blob
	results, err := e.fw.RunPipeline(ctx, []mapreduce.JobConf{stage1, stage2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[1].OutputFiles) != 1 {
		t.Fatalf("results = %+v", results)
	}
}

// TestBlobShuffleJobEndCleanup: a finished job retires its
// intermediate shuffle BLOBs through the garbage collector, so the
// cluster ends the job holding only input and output bytes — and no
// tracker's page cache holds a page of a BLOB the cleanup deleted; a
// job opting out with KeepIntermediate leaves the segments in place.
func TestBlobShuffleJobEndCleanup(t *testing.T) {
	run := func(t *testing.T, keep bool) int64 {
		cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{
			Providers: 6, MetaProviders: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cluster.Close() })
		d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: testBlock}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		mounts := make(map[string]*bsfs.FS)
		fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
			Net:   cluster.Net,
			Hosts: cluster.ProviderHosts(),
			Mount: func(host string) dfs.FileSystem {
				mounts[host] = d.Mount(host)
				return mounts[host]
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fw.Close() })

		text := workload.Text(16<<10, 7)
		if err := dfs.WriteFile(ctx, fw.ClientFS(), "/in/text", []byte(text)); err != nil {
			t.Fatal(err)
		}
		job := wordcount.Job([]string{"/in/text"}, "/out", 4, mapreduce.SeparateFiles)
		job.Shuffle = shuffle.Blob
		job.KeepIntermediate = keep
		res, err := fw.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if res.SegmentsAppended == 0 {
			t.Fatal("job produced no shuffle segments")
		}
		// BLOB ids are dense from 1 on one shard, and the only BLOBs
		// deleted so far are the job's partitions (the collector has not
		// run): every tracker appended to them and some fetched from
		// them, and none may still cache a page of one.
		deleted := 0
		probe := fw.ClientFS().(*bsfs.FS).BlobClient()
		for id := uint64(1); ; id++ {
			_, err := probe.Handle(id, testBlock).Latest(ctx)
			if errors.Is(err, blob.ErrBlobNotFound) {
				break
			}
			if !errors.Is(err, blob.ErrVersionCollected) {
				continue
			}
			deleted++
			for host, m := range mounts {
				if n := m.BlobClient().PageCache().PurgeBlob(id); n != 0 {
					t.Errorf("%s still caches %d pages of deleted shuffle BLOB %d", host, n, id)
				}
			}
		}
		want := job.NumReducers
		if keep {
			want = 0
		}
		if deleted != want {
			t.Errorf("%d BLOBs deleted at job end, want %d", deleted, want)
		}
		// Deterministic settle: the cleanup's DeleteBlob kicked the
		// collector; RunOnce serializes behind it and finishes the job.
		if _, err := d.GC.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		return cluster.ProviderBytes()
	}

	var cleaned, kept int64
	t.Run("cleanup", func(t *testing.T) { cleaned = run(t, false) })
	t.Run("keep-intermediate", func(t *testing.T) { kept = run(t, true) })
	if cleaned >= kept {
		t.Errorf("cleanup run holds %d bytes, keep-intermediate %d: cleanup freed nothing", cleaned, kept)
	}
}
