package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/shuffle"
	"blobseer/internal/workload"
)

// mrDataJoin is the paper's title workload end to end: a data join
// whose maps scan two inputs through the trackers' shared caches,
// shuffle through padded appends to per-partition BLOBs, and whose four
// reducers all append to one shared output file. One slice is one job;
// its output is verified and deleted, clock stopped, before the next.
type mrDataJoin struct {
	*deployment
	fw       *mapreduce.Framework
	inBytes  int64
	outBytes int64  // exact size of a correct output
	outLines int    // Keys*DupA*DupB
	outSum   uint64 // order-independent checksum of a correct output
	base     int64  // provider bytes with only the inputs stored
	padded   int64  // size of the first fully verified output; later ones must match

	jobs                    []mapreduce.JobResult
	atBarrier, shuffleBytes []float64
}

const (
	mrBlock    = 64 << 10
	mrReducers = 4
	mrDup      = 3
	mrInA      = "/in/a"
	mrInB      = "/in/b"
)

func mrInputs(e *env) (a, b string, keys int) {
	var c workload.JoinConfig
	c.Keys = e.n(30000, 200)
	c.DupA, c.DupB = mrDup, mrDup
	c.Seed = e.seed
	a, b = workload.JoinInputs(c)
	return a, b, c.Keys
}

func planMRDataJoin(seed int64, scale float64, h io.Writer) {
	a, b, _ := mrInputs(&env{seed: seed, scale: scale})
	io.WriteString(h, a)
	io.WriteString(h, b)
}

// lineSum hashes one output line; sums of it are order-independent.
func lineSum(line []byte) uint64 {
	h := fnv.New64a()
	h.Write(line)
	return h.Sum64()
}

// referenceJoin computes, independently of the program, what a correct
// join of a and b contains: line count, byte count and checksum.
func referenceJoin(a, b string) (lines int, size int64, sum uint64) {
	parse := func(s string) map[string][]string {
		m := map[string][]string{}
		for _, line := range strings.Split(s, "\n") {
			if k, v, ok := strings.Cut(line, "\t"); ok {
				m[k] = append(m[k], v)
			}
		}
		return m
	}
	bs := parse(b)
	var buf []byte
	for k, as := range parse(a) {
		for _, av := range as {
			for _, bv := range bs[k] {
				buf = append(append(append(append(append(buf[:0], k...), '\t'), av...), '\t'), bv...)
				lines++
				size += int64(len(buf)) + 1
				sum += lineSum(buf)
			}
		}
	}
	return lines, size, sum
}

func setupMRDataJoin(ctx context.Context, e *env) (instance, error) {
	a, b, keys := mrInputs(e)
	d, err := e.boot(clusterSpec{blockSize: mrBlock})
	if err != nil {
		return nil, err
	}
	w := &mrDataJoin{deployment: d, inBytes: int64(len(a) + len(b))}
	w.outLines, w.outBytes, w.outSum = referenceJoin(a, b)
	if w.outLines != keys*mrDup*mrDup {
		d.Close()
		return nil, fmt.Errorf("reference join has %d lines, want %d", w.outLines, keys*mrDup*mrDup)
	}
	if w.fw, err = d.c.NewFramework(); err != nil {
		d.Close()
		return nil, err
	}
	for path, content := range map[string]string{mrInA: a, mrInB: b} {
		if err := dfs.WriteFile(ctx, d.clients[0], path, []byte(content)); err != nil {
			w.Close()
			return nil, err
		}
	}
	w.base = d.c.Blob.ProviderBytes()
	for i := -1; i <= 0; i++ { // two warm-up jobs
		if _, err := w.slice(ctx, i); err != nil {
			w.Close()
			return nil, err
		}
	}
	w.jobs, w.atBarrier, w.shuffleBytes = nil, nil, nil
	return w, nil
}

func (w *mrDataJoin) Close() error {
	if w.fw != nil {
		w.fw.Close()
	}
	return w.deployment.Close()
}

func (w *mrDataJoin) slice(ctx context.Context, i int) (sliceStat, error) {
	var st sliceStat
	tr := w.e.tr
	dir := fmt.Sprintf("/out/job-%05d", i+1)
	conf := datajoin.Job(mrInA, mrInB, dir, mrReducers, mapreduce.SharedAppend)
	conf.Shuffle = shuffle.Blob
	// At the map/reduce barrier every shuffle segment is stored and
	// (reducers are still merging) no output is: the one synchronous
	// point from which stored bytes can be read without racing the
	// job-end cleanup.
	var atBarrier int64
	conf.MapsDoneHook = func() { atBarrier = w.c.Blob.ProviderBytes() }

	p := w.openWindow()
	sp := tr.begin("op", -1, int64(i))
	res, err := w.fw.Run(ctx, conf)
	tr.end(sp)
	p.close(&st)
	if err != nil {
		return st, err
	}
	st.ops = 1
	st.lat = []time.Duration{st.wall}
	st.userBytes = w.inBytes + w.outBytes
	w.attempted.Add(1)
	st.stored = float64(atBarrier) / float64(w.inBytes+int64(res.ShuffleBytes))
	st.imbalance = w.imbalance()
	w.jobs = append(w.jobs, res)
	w.atBarrier = append(w.atBarrier, float64(atBarrier-w.base))
	w.shuffleBytes = append(w.shuffleBytes, float64(res.ShuffleBytes))

	if err := w.verify(ctx, res, i); err != nil {
		w.fail(fmt.Errorf("job %d: %w", i, err))
	}
	for _, out := range res.OutputFiles {
		sp := tr.begin("bsfs.delete", -1, -1)
		err := w.verifier.Delete(ctx, out)
		tr.end(sp)
		if err != nil {
			return st, err
		}
	}
	if err := w.verifier.Delete(ctx, dir); err != nil {
		return st, err
	}
	st.reclaim, st.leftover = w.awaitStored(ctx, w.base)
	st.rotated = true
	return st, nil
}

// verify checks a job's single shared output. Reducers pad each
// atomic append to a whole block with newlines, so the file is the
// join's lines plus empty ones: line count, payload bytes and checksum
// are checked against the reference on the first measured job and
// every eighth after it (hashing 21 MB costs a third of a job), and
// every job's file must be whole blocks of the same total size.
func (w *mrDataJoin) verify(ctx context.Context, res mapreduce.JobResult, i int) error {
	if len(res.OutputFiles) != 1 {
		return fmt.Errorf("%d output files, want one shared file", len(res.OutputFiles))
	}
	out := res.OutputFiles[0]
	fi, err := w.verifier.Stat(ctx, out)
	if err != nil {
		return err
	}
	size := int64(fi.Size)
	if size < w.outBytes || size%mrBlock != 0 || (w.padded != 0 && size != w.padded) {
		return fmt.Errorf("%s: size %d, want whole blocks holding %d bytes (verified outputs had %d)", out, size, w.outBytes, w.padded)
	}
	if i < 1 || (i-1)%8 != 0 {
		return nil
	}
	data, err := dfs.ReadAll(ctx, w.verifier, out)
	if err != nil {
		return err
	}
	var lines int
	var payload int64
	var sum uint64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return fmt.Errorf("%s: unterminated last line", out)
		}
		if nl > 0 {
			lines++
			payload += int64(nl) + 1
			sum += lineSum(data[:nl])
		}
		data = data[nl+1:]
	}
	if lines != w.outLines || payload != w.outBytes || sum != w.outSum {
		return fmt.Errorf("%s: %d lines of %d bytes with checksum %x, want %d of %d with %x",
			out, lines, payload, sum, w.outLines, w.outBytes, w.outSum)
	}
	w.padded = size
	return nil
}

func (w *mrDataJoin) finish(context.Context) (map[string]float64, error) {
	n := len(w.jobs)
	if n == 0 {
		return nil, nil
	}
	pick := func(f func(*mapreduce.JobResult) float64) float64 {
		v := make([]float64, n)
		for i := range w.jobs {
			v[i] = f(&w.jobs[i])
		}
		return median(v)
	}
	var retries, local, maps float64
	for i := range w.jobs {
		retries += float64(w.jobs[i].TaskFailures)
		local += float64(w.jobs[i].LocalMaps)
		maps += float64(w.jobs[i].MapTasks)
	}
	return map[string]float64{
		"mr.map_phase_ms":    pick(func(r *mapreduce.JobResult) float64 { return ms(r.MapPhase) }),
		"mr.reduce_phase_ms": pick(func(r *mapreduce.JobResult) float64 { return ms(r.ReducePhase) }),
		"mr.first_fetch_ms":  pick(func(r *mapreduce.JobResult) float64 { return ms(r.FirstShuffleFetch) }),
		"mr.shuffle_overlap_ms": pick(func(r *mapreduce.JobResult) float64 {
			return ms(r.MapPhase - r.FirstShuffleFetch)
		}),
		"mr.local_map_ratio":              div(local, maps),
		"mr.task_retries":                 retries,
		"shuffle.bytes_per_job":           median(w.shuffleBytes),
		"shuffle.stored_per_shuffle_byte": div(median(w.atBarrier), median(w.shuffleBytes)),
	}, nil
}
