package blobseer

// One benchmark per table/figure of the paper's evaluation, exercising
// the exact workload shape at reduced scale on the unshaped in-process
// transport, so testing.B numbers reflect implementation cost (CPU,
// allocations, synchronization), not modeled wire time. The shaped,
// full-scale figure regeneration lives in cmd/experiments.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/apps/wordcount"
	"blobseer/internal/dfs"
	"blobseer/internal/dht"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/metrics"
	"blobseer/internal/shuffle"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

var benchCtx = context.Background()

var one = []byte("1")

const benchBlock = 64 << 10

// newBenchCluster builds a small embedded deployment. The page cache
// is disabled so the read-heavy benchmarks keep measuring the provider
// read path (their historical meaning) instead of warm-cache hits;
// the cache's own effect is measured by BenchmarkReadDepthSweep.
func newBenchCluster(b *testing.B) *Cluster {
	b.Helper()
	o := sized(8, 3, benchBlock)
	o.CacheBytes = -1
	c, err := NewCluster(o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// benchChunk is one block-sized append payload.
func benchChunk(tag byte) []byte {
	buf := make([]byte, benchBlock)
	for i := range buf {
		buf[i] = byte(int(tag) + i*7)
	}
	return buf
}

// BenchmarkSingleAppend measures the raw append pipeline: one client,
// one chunk per operation (the N=1 point of Figure 3).
func BenchmarkSingleAppend(b *testing.B) {
	c := newBenchCluster(b)
	fs := c.Mount("node-000")
	defer fs.Close()
	w, err := fs.Append(benchCtx, "/bench/single")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := benchChunk(1)
	b.SetBytes(benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ConcurrentAppends is the Figure 3 workload: 16 clients
// appending chunks to one shared file concurrently.
func BenchmarkFig3ConcurrentAppends(b *testing.B) {
	const clients = 16
	c := newBenchCluster(b)
	setup := c.Mount("node-000")
	defer setup.Close()
	if err := dfs.WriteFile(benchCtx, setup, "/bench/fig3", nil); err != nil {
		b.Fatal(err)
	}
	writers := make([]dfs.FileWriter, clients)
	for i := range writers {
		fs := c.Mount(fmt.Sprintf("node-%03d", i%8))
		defer fs.Close()
		w, err := fs.Append(benchCtx, "/bench/fig3")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		writers[i] = w
	}
	data := benchChunk(3)
	b.SetBytes(clients * benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, w := range writers {
			wg.Add(1)
			go func(w dfs.FileWriter) {
				defer wg.Done()
				if _, err := w.Write(data); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// preloadShared writes chunks into a file for the mixed benchmarks.
func preloadShared(b *testing.B, fs dfs.FileSystem, path string, chunks int) {
	b.Helper()
	w, err := fs.Create(benchCtx, path)
	if err != nil {
		b.Fatal(err)
	}
	data := benchChunk(7)
	for i := 0; i < chunks; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig4ReadsUnderAppends is the Figure 4 workload: readers on
// disjoint regions while appenders extend the same file; the metric is
// read bytes/second.
func BenchmarkFig4ReadsUnderAppends(b *testing.B) {
	const readers, appenders, chunksEach = 4, 4, 4
	c := newBenchCluster(b)
	fs := c.Mount("node-000")
	defer fs.Close()
	preloadShared(b, fs, "/bench/fig4", readers*chunksEach)

	appendWriters := make([]dfs.FileWriter, appenders)
	for i := range appendWriters {
		afs := c.Mount(fmt.Sprintf("node-%03d", i%8))
		defer afs.Close()
		w, err := afs.Append(benchCtx, "/bench/fig4")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		appendWriters[i] = w
	}
	data := benchChunk(9)

	b.SetBytes(readers * chunksEach * benchBlock) // read bytes per iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, w := range appendWriters {
			wg.Add(1)
			go func(w dfs.FileWriter) {
				defer wg.Done()
				for k := 0; k < chunksEach; k++ {
					if _, err := w.Write(data); err != nil {
						b.Error(err)
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				f, err := fs.Open(benchCtx, "/bench/fig4")
				if err != nil {
					b.Error(err)
					return
				}
				defer f.Close()
				buf := make([]byte, benchBlock)
				for k := 0; k < chunksEach; k++ {
					off := int64((r*chunksEach + k) * benchBlock)
					if _, err := f.ReadAt(buf, off); err != nil {
						b.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkFig5AppendsUnderReads mirrors Figure 5: the metric is
// append bytes/second while readers run.
func BenchmarkFig5AppendsUnderReads(b *testing.B) {
	const readers, appenders, chunksEach = 4, 4, 4
	c := newBenchCluster(b)
	fs := c.Mount("node-000")
	defer fs.Close()
	preloadShared(b, fs, "/bench/fig5", readers*chunksEach)

	appendWriters := make([]dfs.FileWriter, appenders)
	for i := range appendWriters {
		afs := c.Mount(fmt.Sprintf("node-%03d", i%8))
		defer afs.Close()
		w, err := afs.Append(benchCtx, "/bench/fig5")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		appendWriters[i] = w
	}
	data := benchChunk(11)

	b.SetBytes(appenders * chunksEach * benchBlock) // appended bytes per iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				f, err := fs.Open(benchCtx, "/bench/fig5")
				if err != nil {
					b.Error(err)
					return
				}
				defer f.Close()
				buf := make([]byte, benchBlock)
				for k := 0; k < chunksEach; k++ {
					off := int64((r*chunksEach + k) * benchBlock)
					if _, err := f.ReadAt(buf, off); err != nil {
						b.Error(err)
						return
					}
				}
			}(r)
		}
		for _, w := range appendWriters {
			wg.Add(1)
			go func(w dfs.FileWriter) {
				defer wg.Done()
				for k := 0; k < chunksEach; k++ {
					if _, err := w.Write(data); err != nil {
						b.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// fig6Inputs builds a small Last.fm-shaped join input pair.
func fig6Inputs() (string, string) {
	return workload.JoinInputs(workload.JoinConfig{Keys: 150, DupA: 3, DupB: 3, Seed: 42})
}

// BenchmarkFig6DataJoinBSFS runs the data-join job of Figure 6 on the
// modified framework (all reducers appending to one shared file).
func BenchmarkFig6DataJoinBSFS(b *testing.B) {
	c := newBenchCluster(b)
	fw, err := c.NewFramework()
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	a, bb := fig6Inputs()
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/a", []byte(a)); err != nil {
		b.Fatal(err)
	}
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/b", []byte(bb)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := datajoin.Job("/in/a", "/in/b", fmt.Sprintf("/out/%d", i), 4, mapreduce.SharedAppend)
		res, err := fw.Run(benchCtx, job)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.OutputFiles) != 1 {
			b.Fatalf("output files = %d", len(res.OutputFiles))
		}
	}
}

// BenchmarkFig6DataJoinHDFS is the original-framework baseline of
// Figure 6 (one part file per reducer, temp + rename commit).
func BenchmarkFig6DataJoinHDFS(b *testing.B) {
	net := transport.NewMemNet()
	cluster, err := hdfs.NewCluster(net, hdfs.ClusterConfig{Datanodes: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   net,
		Hosts: cluster.DatanodeHosts(),
		Mount: func(host string) dfs.FileSystem { return cluster.Mount(host, benchBlock) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	a, bb := fig6Inputs()
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/a", []byte(a)); err != nil {
		b.Fatal(err)
	}
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/b", []byte(bb)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := datajoin.Job("/in/a", "/in/b", fmt.Sprintf("/out/%d", i), 4, mapreduce.SeparateFiles)
		res, err := fw.Run(benchCtx, job)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.OutputFiles) != 4 {
			b.Fatalf("output files = %d", len(res.OutputFiles))
		}
	}
}

// BenchmarkDataJoinRecords is the record path of the framework alone:
// the gated mr_datajoin job's shape (blob shuffle, four reducers
// appending to one shared file) at a tenth of its size, 18 000 map
// input records and 27 000 output lines a job. objects/record is the
// job's whole allocation count over its map input records: a record is
// bytes from the split to the output file, so it sits well under one
// (13.5 while a record was a string, a Pair and a formatted line).
func BenchmarkDataJoinRecords(b *testing.B) {
	c := newBenchCluster(b)
	fw, err := c.NewFramework()
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	a, bb := workload.JoinInputs(workload.JoinConfig{Keys: 3000, DupA: 3, DupB: 3, Seed: 42})
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/a", []byte(a)); err != nil {
		b.Fatal(err)
	}
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/b", []byte(bb)); err != nil {
		b.Fatal(err)
	}
	run := func(i int) mapreduce.JobResult {
		job := datajoin.Job("/in/a", "/in/b", fmt.Sprintf("/out/%d", i), 4, mapreduce.SharedAppend)
		job.Shuffle = shuffle.Blob
		res, err := fw.Run(benchCtx, job)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReduceOutputRecords != 3000*3*3 {
			b.Fatalf("job %d joined %d rows, want %d", i, res.ReduceOutputRecords, 3000*3*3)
		}
		return res
	}
	run(-1) // warm caches, pools and the tree-node cache
	var records uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		records += run(i).MapInputRecords
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "objects/record")
}

// BenchmarkSegmentFetch is the blob shuffle's read alone, in the gated
// mr_datajoin job's shape: an op fetches one partition of 124 segments of
// about 17 KB over 64 KiB pages through a client that holds nothing of it
// (the client forgets the BLOB, off the clock, before every op).
// getbatch/op is the meta.GetBatch calls that costs: per segment one
// level of leaves, a call per metadata provider holding one of them,
// where a walk of the segment tree cost 5.5.
func BenchmarkSegmentFetch(b *testing.B) {
	const segs = 124
	c := newBenchCluster(b)
	w, r := c.BlobClient("node-000"), c.BlobClient("node-001")
	defer w.Close()
	defer r.Close()
	st, err := shuffle.NewBlobStore(benchCtx, w, 1, 1, benchBlock)
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < segs; m++ {
		if err := st.AppendMap(benchCtx, w, uint64(m), [][]byte{benchChunk(byte(m))[:16<<10+m*37%2048]}); err != nil {
			b.Fatal(err)
		}
	}
	st.SetMapCount(segs)
	fetch := func(i int) {
		seg, ok, err := st.Next(benchCtx, 0, i)
		if err == nil && ok {
			err = st.Fetch(benchCtx, r, seg, make([]byte, seg.Len))
		}
		if err != nil || !ok {
			b.Fatalf("segment %d: %v, %v", i, ok, err)
		}
	}
	for i := 0; i < segs; i++ { // dial every connection a fetch needs
		fetch(i)
	}
	getBatches := func() uint64 { return metrics.Default.RPCClient.Snapshot()[dht.MethodGetBatch.Name].Calls }
	before := getBatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.PurgeBlob(st.Blobs()...)
		b.StartTimer()
		for s := 0; s < segs; s++ {
			fetch(s)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(getBatches()-before)/float64(b.N), "getbatch/op")
}

// BenchmarkExtPipeline runs the §5 future-work scenario: a two-stage
// pipeline whose second stage streams the first stage's growing output.
func BenchmarkExtPipeline(b *testing.B) {
	c := newBenchCluster(b)
	fw, err := c.NewFramework()
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	a, bb := fig6Inputs()
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/a", []byte(a)); err != nil {
		b.Fatal(err)
	}
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/b", []byte(bb)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1 := datajoin.Job("/in/a", "/in/b", fmt.Sprintf("/s1/%d", i), 2, mapreduce.SharedAppend)
		s2 := mapreduce.JobConf{
			Name:        "identity",
			OutputDir:   fmt.Sprintf("/s2/%d", i),
			Map:         func(k, v []byte, out *mapreduce.Emitter) { out.Emit(v, one) },
			Reduce:      func(k []byte, vs [][]byte, out *mapreduce.Emitter) { out.Emit(k, one) },
			NumReducers: 2,
			OutputMode:  mapreduce.SharedAppend,
		}
		if _, err := fw.RunPipeline(benchCtx, []mapreduce.JobConf{s1, s2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleBackends runs the same wordcount job under both
// shuffle backends: memory (in-tracker RPC store, reduces gated on the
// map barrier) and blob (map outputs as concurrent appends to shared
// per-partition intermediate BLOBs, reduces fetching as maps publish).
// Beyond ns/op, each run reports:
//
//   - overlap-ms — map-phase end minus first shuffle fetch. Positive
//     for the blob backend (the first segment is fetched before the
//     last map finishes: shuffle overlaps the map phase); ~zero for
//     the memory backend, whose reducers start at the barrier.
//   - reruns — map outputs lost to tracker death (none injected here,
//     so 0 for both; the failure comparison lives in the experiments
//     "shuffle" scenario and the fault-tolerance tests).
func BenchmarkShuffleBackends(b *testing.B) {
	for _, backend := range []shuffle.Backend{shuffle.Memory, shuffle.Blob} {
		b.Run(backend.String(), func(b *testing.B) {
			c := newBenchCluster(b)
			fw, err := c.NewFramework()
			if err != nil {
				b.Fatal(err)
			}
			defer fw.Close()
			// ~24 block-sized splits over 16 map slots: a multi-wave
			// map phase, stretched by modeled per-record cost so the
			// overlap window is visible.
			text := workload.Text(24*benchBlock, 21)
			if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/corpus", []byte(text)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			var overlap time.Duration
			var reruns int
			for i := 0; i < b.N; i++ {
				job := wordcount.Job([]string{"/in/corpus"}, fmt.Sprintf("/out/%d", i), 4, mapreduce.SeparateFiles)
				job.Shuffle = backend
				job.MapCostPerRecord = 5 * time.Microsecond
				res, err := fw.Run(benchCtx, job)
				if err != nil {
					b.Fatal(err)
				}
				if res.FirstShuffleFetch > 0 {
					overlap += res.MapPhase - res.FirstShuffleFetch
				}
				reruns += res.MapOutputsLost
			}
			b.StopTimer()
			b.ReportMetric(float64(overlap.Milliseconds())/float64(b.N), "overlap-ms")
			b.ReportMetric(float64(reruns)/float64(b.N), "reruns")
		})
	}
}

// BenchmarkAblationLockedAppend measures the Abl 1 baseline: 16
// appenders serialized by a global lock (a lease-style design).
// Compare with BenchmarkFig3ConcurrentAppends.
func BenchmarkAblationLockedAppend(b *testing.B) {
	const clients = 16
	c := newBenchCluster(b)
	setup := c.Mount("node-000")
	defer setup.Close()
	if err := dfs.WriteFile(benchCtx, setup, "/bench/locked", nil); err != nil {
		b.Fatal(err)
	}
	writers := make([]dfs.FileWriter, clients)
	for i := range writers {
		fs := c.Mount(fmt.Sprintf("node-%03d", i%8))
		defer fs.Close()
		w, err := fs.Append(benchCtx, "/bench/locked")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		writers[i] = w
	}
	data := benchChunk(13)
	var gate sync.Mutex
	b.SetBytes(clients * benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, w := range writers {
			wg.Add(1)
			go func(w dfs.FileWriter) {
				defer wg.Done()
				gate.Lock()
				defer gate.Unlock()
				if _, err := w.Write(data); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkMultiBlockWrite measures a run: one Write of four blocks and
// its Flush, which the writer sends as a single four-page append (one
// version, one allocation, one metadata commit) — the op of the gated
// append_shared workload, with one client.
func BenchmarkMultiBlockWrite(b *testing.B) {
	const blocks = 4
	c := newBenchCluster(b)
	fs := c.Mount("node-000")
	defer fs.Close()
	w, err := fs.Append(benchCtx, "/bench/multi")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := bytes.Repeat(benchChunk(2), blocks)
	b.SetBytes(blocks * benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordAppend measures a record: a 1000-byte Write and its
// Flush onto a file of 16 KiB blocks — the op of the gated record_append
// workload, with one client. All but one record in sixteen begin
// mid-block, and an unaligned append stores a fragment holding its own
// bytes: it reads nothing back and waits for no other version.
func BenchmarkRecordAppend(b *testing.B) {
	const block, record = 16 << 10, 1000
	o := sized(8, 3, block)
	o.CacheBytes = -1
	c, err := NewCluster(o)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fs := c.Mount("node-000")
	defer fs.Close()
	w, err := fs.Append(benchCtx, "/bench/records")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := benchChunk(4)[:record]
	b.SetBytes(record)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stored := c.Blob.ProviderBytes(); stored != int64(b.N)*record {
		b.Errorf("providers hold %d bytes for %d bytes of records", stored, b.N*record)
	}
}

// BenchmarkWriteDepthSweep measures multi-block file-write throughput
// as a function of the writer pipeline depth, two ways. write=block
// hands the writer one block per Write, so every block is an append of
// its own: depth=1 is the synchronous pre-pipelining writer (each
// block's data path completes before the next begins), larger depths
// keep that many blocks in flight behind one serialized
// version-assignment stream. write=file hands it all 16 blocks in one
// Write, which leaves as runs of depth blocks, one append each: 16, 8,
// 4 and 2 appends per file.
//
// BLOBSEER_BENCH_FLIGHT=1 runs the same sweep with a flight recorder
// and armed SLO watchdog on the deployment — the paired A/B for the
// recorder's overhead budget on an untraced workload (the tail
// sampler's span hook never fires when nothing is traced, so the two
// arms should be within noise of each other).
func BenchmarkWriteDepthSweep(b *testing.B) {
	const blocks = 16
	flightPath := ""
	if os.Getenv("BLOBSEER_BENCH_FLIGHT") == "1" {
		flightPath = filepath.Join(b.TempDir(), "flight.log")
	}
	file := bytes.Repeat(benchChunk(5), blocks)
	for _, arm := range []struct {
		name  string
		write int // bytes per Write call
	}{{"block", benchBlock}, {"file", len(file)}} {
		for _, depth := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("write=%s/depth=%d", arm.name, depth), func(b *testing.B) {
				o := sized(8, 3, benchBlock)
				o.WriteDepth, o.FlightPath = depth, flightPath
				c, err := NewCluster(o)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				fs := c.Mount("node-000")
				defer fs.Close()
				b.SetBytes(blocks * benchBlock)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w, err := fs.Create(benchCtx, fmt.Sprintf("/bench/%s-depth%d/%d", arm.name, depth, i))
					if err != nil {
						b.Fatal(err)
					}
					for off := 0; off < len(file); off += arm.write {
						if _, err := w.Write(file[off : off+arm.write]); err != nil {
							b.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReadDepthSweep measures full-file sequential-scan
// throughput as a function of the reader readahead depth: depth 0 is
// the synchronous reader (each block's transfer completes before the
// next begins), larger depths keep that many block fetches in flight
// ahead of the reader through the shared page cache. Readahead earns
// its keep by hiding per-fetch network latency, which the unshaped
// in-process transport does not model — so this sweep (alone in this
// file) runs on a latency/bandwidth-shaped transport, like the figure
// experiments. The cache budget is held at half the file so iterations
// re-fetch from providers instead of replaying the previous scan from
// memory.
func BenchmarkReadDepthSweep(b *testing.B) {
	const blocks = 16
	for _, depth := range []int{-1, 1, 4} { // -1 = readahead off
		label := depth
		if label < 0 {
			label = 0
		}
		b.Run(fmt.Sprintf("readdepth=%d", label), func(b *testing.B) {
			// Latency-dominated profile: the round trip (2 ms) is what
			// readahead can hide, while the wire time of a block
			// (~60 us at 1 GiB/s) keeps the shared client NIC from
			// becoming the serial floor.
			net := simnet.New(transport.NewMemNet(), simnet.Config{
				Bandwidth:     1 << 30,
				Latency:       time.Millisecond,
				FrameOverhead: 64,
			})
			o := sized(8, 3, benchBlock)
			o.Net, o.ReadDepth, o.CacheBytes = net, depth, blocks/2*benchBlock
			c, err := NewCluster(o)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fs := c.Mount("node-000")
			defer fs.Close()
			preloadShared(b, fs, "/bench/readdepth", blocks)
			buf := make([]byte, benchBlock)
			b.SetBytes(blocks * benchBlock)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := fs.Open(benchCtx, "/bench/readdepth")
				if err != nil {
					b.Fatal(err)
				}
				var total int
				for {
					n, err := f.Read(buf)
					total += n
					if err != nil {
						break
					}
				}
				if total != blocks*benchBlock {
					b.Fatalf("scanned %d bytes, want %d", total, blocks*benchBlock)
				}
				f.Close()
			}
		})
	}
}

// BenchmarkMetadataCommit isolates the metadata path: appends of one
// tiny page each, so version assignment + segment-tree commit dominate.
func BenchmarkMetadataCommit(b *testing.B) {
	c, err := NewCluster(sized(4, 3, 256))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	bc := c.BlobClient("node-000")
	defer bc.Close()
	bl, err := bc.Create(benchCtx, 256)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Append(benchCtx, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionedRead measures random single-chunk reads from a
// BLOB with a deep version history (the reader-side cost of
// versioning).
func BenchmarkVersionedRead(b *testing.B) {
	c := newBenchCluster(b)
	fs := c.Mount("node-001")
	defer fs.Close()
	const chunks = 64
	preloadShared(b, fs, "/bench/read", chunks)
	f, err := fs.Open(benchCtx, "/bench/read")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, benchBlock)
	b.SetBytes(benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i % chunks) * benchBlock)
		if _, err := f.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreshSnapshotRead measures the reader of the gated
// read_under_append workload: per iteration a second mount appends a
// block, and the reader Stats the file, opens the snapshot Stat saw,
// reads 16 sequential blocks at a rotating offset and closes. The reader
// has walked the file once, so of each fresh snapshot's tree it lacks
// the root and what the appends since its last read built; getbatch/block
// is the meta.GetBatch calls that costs per block read (a descent per
// block would be 11).
func BenchmarkFreshSnapshotRead(b *testing.B) {
	const preload, window = 512, 16
	c := newBenchCluster(b)
	wfs, rfs := c.Mount("node-000"), c.Mount("node-001")
	defer wfs.Close()
	defer rfs.Close()
	const path = "/bench/fresh"
	preloadShared(b, wfs, path, preload)
	w, err := wfs.Append(benchCtx, path)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := benchChunk(7)
	buf := make([]byte, benchBlock)
	iteration := func(i int) {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.(dfs.Flusher).Flush(); err != nil {
			b.Fatal(err)
		}
		fi, err := rfs.Stat(benchCtx, path)
		if err != nil {
			b.Fatal(err)
		}
		r, err := rfs.OpenVersion(benchCtx, path, fi.Version)
		if err != nil {
			b.Fatal(err)
		}
		start := i * window % (preload - window)
		for blk := start; blk < start+window; blk++ {
			if _, err := r.ReadAt(buf, int64(blk)*benchBlock); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < preload/window; i++ { // the reader walks the file once
		iteration(i)
	}
	getBatches := func() uint64 { return metrics.Default.RPCClient.Snapshot()[dht.MethodGetBatch.Name].Calls }
	before := getBatches()
	b.SetBytes(window * benchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iteration(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(getBatches()-before)/float64(b.N*window), "getbatch/block")
}

// TestClusterFacade keeps the root package tested, not just benched.
func TestClusterFacade(t *testing.T) {
	c, err := NewCluster(sized(4, 2, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.Mount("node-000")
	defer fs.Close()
	if err := dfs.WriteFile(benchCtx, fs, "/hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(benchCtx, fs, "/hello")
	if err != nil || string(got) != "world" {
		t.Fatalf("read = %q, %v", got, err)
	}
	fw, err := c.NewFramework()
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	start := time.Now()
	if err := dfs.WriteFile(benchCtx, fw.ClientFS(), "/in/t", []byte("a b a\n")); err != nil {
		t.Fatal(err)
	}
	res, err := fw.Run(benchCtx, mapreduce.JobConf{
		Name:        "probe",
		Input:       []string{"/in/t"},
		OutputDir:   "/out",
		Map:         func(k, v []byte, out *mapreduce.Emitter) { out.Emit(v, one) },
		Reduce:      func(k []byte, vs [][]byte, out *mapreduce.Emitter) { out.Emit(k, one) },
		NumReducers: 1,
		OutputMode:  mapreduce.SharedAppend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) != 1 || time.Since(start) > time.Minute {
		t.Fatalf("res = %+v", res)
	}
}

// BenchmarkGCReclaim measures one garbage-collection cycle under a
// checkpoint-style workload: 4 writers overwrite their regions of a
// shared BLOB (creating one full working set of shadowed garbage),
// then the collector scans, diffs reachability, deletes provider
// pages, and removes dead metadata nodes. Reported per reclaim cycle.
func BenchmarkGCReclaim(b *testing.B) {
	c := newBenchCluster(b)
	cl := c.BlobClient("node-000")
	b.Cleanup(func() { cl.Close() })
	bl, err := cl.Create(benchCtx, benchBlock)
	if err != nil {
		b.Fatal(err)
	}
	if err := bl.SetRetention(benchCtx, 2); err != nil {
		b.Fatal(err)
	}
	const writers = 4
	region := benchChunk(1) // one block per writer region
	gcol := c.FS.GC

	write := func(round int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := bl.WriteAt(benchCtx, region, uint64(w)*benchBlock); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	write(0) // seed the working set
	if _, err := gcol.RunOnce(benchCtx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i + 1)
		rep, err := gcol.RunOnce(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.VersionsCollected == 0 {
			b.Fatal("reclaim cycle collected nothing")
		}
	}
	b.StopTimer()
	if bytes := c.Blob.ProviderBytes(); bytes > int64(3*writers*benchBlock) {
		b.Fatalf("storage unbounded under GC: %d bytes", bytes)
	}
}
