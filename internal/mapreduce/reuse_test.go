package mapreduce_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/pagestore"
	"blobseer/internal/shuffle"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

// lineSum hashes one output row; sums of it do not depend on the order
// concurrent reducers appended the rows in.
func lineSum(line string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(line))
	return h.Sum64()
}

// TestWarmDataJoinReusesBuffers runs one data join twice on one
// framework, the reducers appending to one shared file over a blob
// shuffle, and counts buffer reuse rather than allocations: the second
// job's reducers take every segment buffer and their record writers'
// batch buffers from their tracker's free list and every block buffer
// from their mount's, and the providers store pages in the buffers of
// the pages the first job's cleanup freed. The segments are poisoned
// when they go back (TestMain), so a key or value view that outlived
// its reduce changes the output, which must match the reference join
// row for row.
func TestWarmDataJoinReusesBuffers(t *testing.T) {
	const keys, reducers = 500, 4
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{Providers: reducers, MetaProviders: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	// One reduce slot a tracker: reduce r runs on tracker r in both jobs,
	// and no reduce gives its segments back while another on its tracker
	// still fetches.
	var mounts []*bsfs.FS
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   cluster.Net,
		Hosts: cluster.ProviderHosts(),
		Mount: func(host string) dfs.FileSystem {
			mounts = append(mounts, d.Mount(host))
			return mounts[len(mounts)-1]
		},
		ReduceSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	a, b := workload.JoinInputs(workload.JoinConfig{Keys: keys, DupA: 2, DupB: 3, Seed: 9})
	for path, content := range map[string]string{"/in/a": a, "/in/b": b} {
		if err := dfs.WriteFile(ctx, fw.ClientFS(), path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	var wantRows int
	var wantSum uint64
	for row, n := range datajoin.ReferenceJoin(a, b) {
		wantRows += n
		wantSum += uint64(n) * lineSum(row)
	}

	segments := func() (st transport.RecycleStats) {
		for _, tt := range fw.Trackers() {
			s := tt.SegmentRecycling()
			st.Held += s.Held
			st.Free += s.Free
			st.Reused += s.Reused
			st.Fresh += s.Fresh
		}
		return st
	}
	blocks := func() (st transport.RecycleStats) {
		for _, m := range mounts {
			s := m.BlockRecycling()
			st.Held += s.Held
			st.Reused += s.Reused
			st.Fresh += s.Fresh
		}
		return st
	}
	pages := func() (st transport.RecycleStats) {
		for _, p := range cluster.Providers {
			s := p.Store().(*pagestore.Memory).Recycled()
			st.Reused += s.Reused
			st.Fresh += s.Fresh
		}
		return st
	}
	job := func(i int) (res mapreduce.JobResult, segs, blks, pgs transport.RecycleStats) {
		t.Helper()
		segs0, blks0, pgs0 := segments(), blocks(), pages()
		conf := datajoin.Job("/in/a", "/in/b", fmt.Sprintf("/out/%d", i), reducers, mapreduce.SharedAppend)
		conf.Shuffle = shuffle.Blob
		res, err := fw.Run(ctx, conf)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OutputFiles) != 1 {
			t.Fatalf("job %d: output files %v, want one shared file", i, res.OutputFiles)
		}
		out, err := dfs.ReadAll(ctx, fw.ClientFS(), res.OutputFiles[0])
		if err != nil {
			t.Fatal(err)
		}
		var rows int
		var sum uint64
		for _, line := range strings.Split(string(out), "\n") {
			if line != "" {
				rows++
				sum += lineSum(line)
			}
		}
		if rows != wantRows || sum != wantSum {
			t.Fatalf("job %d wrote %d rows with checksum %x, the reference join %d with %x", i, rows, sum, wantRows, wantSum)
		}
		// As a steady stream of jobs does, delete the output; with the
		// shuffle's BLOBs, which the cleanup deleted, the collector frees
		// every page the job stored before the next job runs.
		if err := fw.ClientFS().Delete(ctx, res.OutputFiles[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.GC.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		segs, blks, pgs = segments(), blocks(), pages()
		segs.Reused -= segs0.Reused
		segs.Fresh -= segs0.Fresh
		blks.Reused -= blks0.Reused
		blks.Fresh -= blks0.Fresh
		pgs.Reused -= pgs0.Reused
		pgs.Fresh -= pgs0.Fresh
		return res, segs, blks, pgs
	}

	res1, segs1, blks1, pgs1 := job(1)
	if segs1.Reused != 0 || pgs1.Reused != 0 {
		t.Fatalf("the cold job reused %d segment and %d page buffers", segs1.Reused, pgs1.Reused)
	}
	// A segment buffer per segment and a batch buffer per reducer.
	if segs1.Fresh != res1.SegmentsFetched+reducers {
		t.Errorf("the cold job's reducers took %d buffers from their trackers for %d segments, want a batch buffer more each", segs1.Fresh, res1.SegmentsFetched)
	}
	res, segs2, blks2, pgs2 := job(2)
	t.Logf("segment and batch buffers: job 1 %d fresh, %d reused; job 2 %d fresh, %d reused; %d bytes free",
		segs1.Fresh, segs1.Reused, segs2.Fresh, segs2.Reused, segs2.Free)
	t.Logf("block buffers: job 1 %d fresh, %d reused; job 2 %d fresh, %d reused",
		blks1.Fresh, blks1.Reused, blks2.Fresh, blks2.Reused)
	t.Logf("provider pages: job 1 %d fresh, %d reused; job 2 %d fresh, %d reused (%d segments appended)",
		pgs1.Fresh, pgs1.Reused, pgs2.Fresh, pgs2.Reused, res.SegmentsAppended)
	// A page store whose free list matched exact lengths only reused 54
	// to 75 of this warm job's 199 page puts (20 runs): the output's
	// whole blocks and the rare shuffle fragment of a repeated length.
	// By exact size class it reused 112 to 135 (20 runs, 56 to 68 %);
	// reaching up one octave for a class it lacks, 156 to 176 (40 runs,
	// 78 to 88 %): most of the shuffle's scattered fragments too.
	if puts := pgs2.Reused + pgs2.Fresh; pgs2.Reused*100 < puts*75 {
		t.Errorf("the warm job stored %d of its %d pages in freed buffers, want at least 75 %%", pgs2.Reused, puts)
	}
	if segs2.Held != 0 {
		t.Errorf("trackers hold %d segment bytes after the job", segs2.Held)
	}
	if segs2.Fresh != 0 || segs2.Reused != segs1.Fresh {
		t.Errorf("the warm job's reducers took %d fresh and %d free segment and batch buffers, want all %d free", segs2.Fresh, segs2.Reused, segs1.Fresh)
	}
	if blks2.Fresh != 0 || blks2.Reused == 0 || blks2.Held != 0 {
		t.Errorf("the warm job's writers took %d fresh and %d free block buffers and hold %d B after it, want none fresh and none held", blks2.Fresh, blks2.Reused, blks2.Held)
	}
}
