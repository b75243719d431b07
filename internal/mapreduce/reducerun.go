package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"time"

	"blobseer/internal/dfs"
	"blobseer/internal/shuffle"
	"blobseer/internal/transport"
)

// Shuffle-fetch retry tuning (memory backend): a reducer that cannot
// fetch a map output reports it lost — the jobtracker re-executes the
// map — and retries with capped exponential backoff. The per-map retry
// budget turns "this output can never be re-produced" into a reduce
// failure with a diagnostic instead of an unbounded spin.
const (
	fetchRetryBudget = 10
	fetchBackoffBase = 5 * time.Millisecond
	fetchBackoffCap  = 320 * time.Millisecond
)

// runReduce executes one reduce task on this tracker: fetch every map
// output partition of its reduce partition through the job's shuffle
// backend, k-way merge the individually sorted partitions, apply the
// reduce function with modeled cost, and commit the output according
// to the job's OutputMode.
func (tt *TaskTracker) runReduce(ctx context.Context, job *jobState, r int) (outRecords, outBytes, shuffled uint64, err error) {
	if tt.Dead() {
		return 0, 0, 0, fmt.Errorf("mapreduce: tracker is dead")
	}
	ctx, cancel := mergeCtx(ctx, tt.ctx)
	defer cancel()

	// Shuffle phase: collect one sorted run per map task. Every
	// segment is validated whole as it arrives, so a damaged one fails
	// the attempt here, before any output exists: a reduce that died
	// mid-merge would leave its appended blocks in a shared file for
	// the retry to duplicate.
	var runs []run
	if job.shuffle != nil {
		var segs [][]byte
		defer func() {
			for _, seg := range segs {
				tt.segs.Give(seg, seg)
			}
		}()
		runs, segs, shuffled, err = tt.fetchBlobSegments(ctx, job, r)
	} else {
		runs, shuffled, err = tt.fetchTrackerOutputs(ctx, job, r)
	}
	if err != nil {
		return 0, 0, shuffled, err
	}

	// Merge + reduce + output phase: groups are consumed straight off
	// the streaming k-way merge of the sorted runs — no concatenation
	// buffer, no full re-sort. The group key and its values are views
	// of the fetched segments; values is one slice, refilled per group.
	// The views die with the reduce: the record writer copies what is
	// emitted, and a blob shuffle's segments go back to the tracker's
	// free list once the output has committed or failed.
	w, commit, err := tt.openReduceOutput(ctx, job, r)
	if err != nil {
		return 0, 0, shuffled, err
	}
	cw := &countingWriter{w: w}
	cost := costModel{perRecord: job.conf.ReduceCostPerRecord}
	out := NewEmitter(cw)
	merge := newPairMerger(runs)
	var groupKey []byte
	var values [][]byte
	for out.err == nil {
		k, v, ok := merge.next()
		if !ok || (len(values) > 0 && !bytes.Equal(k, groupKey)) {
			if len(values) > 0 {
				job.conf.Reduce(groupKey, values, out)
			}
			if !ok {
				break
			}
			values = values[:0]
		}
		if len(values) == 0 {
			groupKey = k
		}
		values = append(values, v)
		cost.tick()
		if ctx.Err() != nil {
			out.err = ctx.Err()
		}
	}
	cost.flush()
	if out.err != nil {
		if cerr := commit(false); cerr != nil {
			slog.Debug("mapreduce: abort reduce attempt", "err", cerr)
		}
		return 0, 0, shuffled, out.err
	}
	if err := commit(true); err != nil {
		return 0, 0, shuffled, err
	}
	return out.n, cw.n, shuffled, nil
}

// fetchTrackerOutputs is the memory backend's shuffle: pull partition
// r of every map output from the producing trackers' shuffle services,
// re-requesting lost outputs (which the jobtracker re-executes) with
// capped exponential backoff and a bounded per-map retry budget.
func (tt *TaskTracker) fetchTrackerOutputs(ctx context.Context, job *jobState, r int) (runs []run, shuffled uint64, err error) {
	nMaps := job.mapCount()
	runs = make([]run, 0, nMaps)
	for m := 0; m < nMaps; m++ {
		backoff := fetchBackoffBase
		for attempt := 1; ; attempt++ {
			loc, err := job.waitMapLoc(ctx, m)
			if err != nil {
				return nil, shuffled, err
			}
			data, ferr := tt.fetchMapOutput(ctx, loc.ShuffleAddr(), job.id, uint64(m), uint64(r))
			if ferr == nil {
				job.noteShuffleFetch(m)
				shuffled += uint64(len(data))
				part, derr := openRun(data)
				if derr != nil {
					return nil, shuffled, fmt.Errorf("reduce %d: decode map %d output: %w", r, m, derr)
				}
				runs = append(runs, part)
				break
			}
			job.reportLostOutput(m, loc)
			if attempt >= fetchRetryBudget {
				return nil, shuffled, fmt.Errorf("reduce %d: map %d output unfetchable after %d attempts (last error: %v)", r, m, attempt, ferr)
			}
			select {
			case <-ctx.Done():
				return nil, shuffled, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > fetchBackoffCap {
				backoff = fetchBackoffCap
			}
		}
	}
	return runs, shuffled, nil
}

// fetchBlobSegments is the blob backend's shuffle: consume partition
// r's segments off the job's segment index as maps publish them —
// overlapping the map phase — and read each one out of its
// intermediate BLOB into a buffer from the tracker's free list, of the
// segment's size class or up to twice it, sliced to its length. segs
// holds every buffer taken, also on failure, for the caller to give
// back. A re-executed reduce attempt restarts from consumed = 0; the
// index replays the same segments.
func (tt *TaskTracker) fetchBlobSegments(ctx context.Context, job *jobState, r int) (runs []run, segs [][]byte, shuffled uint64, err error) {
	src, ok := tt.fs.(shuffle.ClientSource)
	if !ok {
		return nil, nil, 0, fmt.Errorf("reduce %d: blob shuffle on %s mount", r, tt.fs.Name())
	}
	c := src.BlobClient()
	for consumed := 0; ; consumed++ {
		seg, ok, err := job.shuffle.Next(ctx, r, consumed)
		if err != nil {
			return nil, segs, shuffled, fmt.Errorf("reduce %d: shuffle: %w", r, err)
		}
		if !ok {
			return runs, segs, shuffled, nil
		}
		var data []byte
		if seg.Len > 0 {
			data = transport.TakeBytes(&tt.segs, int(seg.Len))[:seg.Len]
			segs = append(segs, data)
		}
		if err := job.shuffle.Fetch(ctx, c, seg, data); err != nil {
			return nil, segs, shuffled, fmt.Errorf("reduce %d: %w", r, err)
		}
		if job.noteShuffleFetch(int(seg.Map)) {
			job.shuffle.MarkRecovered(seg)
		}
		shuffled += seg.Len
		part, derr := openRun(data)
		if derr != nil {
			return nil, segs, shuffled, fmt.Errorf("reduce %d: decode map %d segment: %w", r, seg.Map, derr)
		}
		runs = append(runs, part)
	}
}

// recordWriter batches whole records (each Write call is one record)
// and flushes each batch as one atomic append, padded with newlines to
// an exact multiple of the block size.
//
// The padding is the trade GFS record append makes, for what is left of
// its reason. It no longer keeps appends parallel: an unaligned append
// stores a fragment of its page slot and waits for nobody (package
// segtree, "Fragments"). What block-aligned batches still buy is that
// every page slot of the output is one stored page — one fetch for a
// reader, a block a reader can view without assembling it, and one
// location to schedule a map task next to. The cost is interior
// padding, which for the text record format is just empty lines that
// every record reader already skips. The padding decides the bytes of
// the output file, so it stays until a gated workload can judge the
// alternative.
//
// A batch is one block, except that a record larger than a block is a
// batch of its own, padded to the next block multiple: the stream
// commits the whole blocks of one Write together, so it too is one
// atomic append. A record over the stream's dfs.Flusher.AtomicLimit
// could only be written torn, and fails the Write instead (GFS imposes
// the analogous record ≤ 1/4 chunk limit).
//
// The batch buffer comes from bufs, a tracker's free list, and goes back
// on Close: w copies what it is given, so nothing else holds it.
type recordWriter struct {
	w     dfs.FileWriter
	fl    dfs.Flusher // w as a Flusher, nil if it is none
	block int
	bufs  *transport.Recycler[[]byte]
	batch []byte // the buffer taken from bufs, which buf outgrows for a record over a block
	buf   []byte
	err   error
	done  bool
}

func newRecordWriter(w dfs.FileWriter, blockSize int, bufs *transport.Recycler[[]byte]) *recordWriter {
	if blockSize <= 0 {
		blockSize = 64 << 20
	}
	batch := transport.TakeBytes(bufs, blockSize)
	rw := &recordWriter{w: w, block: blockSize, bufs: bufs, batch: batch, buf: batch[:0]}
	rw.fl, _ = w.(dfs.Flusher)
	return rw
}

// Write implements io.Writer; p must be one whole record.
func (rw *recordWriter) Write(p []byte) (int, error) {
	if rw.err != nil {
		return 0, rw.err
	}
	if rw.fl != nil && len(p) > rw.fl.AtomicLimit() {
		rw.err = fmt.Errorf("mapreduce: a %d-byte record cannot be appended atomically (limit %d bytes: raise the block size or the write depth)", len(p), rw.fl.AtomicLimit())
		return 0, rw.err
	}
	if len(rw.buf)+len(p) > rw.block && len(rw.buf) > 0 {
		if err := rw.flush(); err != nil {
			return 0, err
		}
	}
	rw.buf = append(rw.buf, p...)
	if len(rw.buf) >= rw.block {
		if err := rw.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// flush pads the batch to a block multiple and forces it out as one
// atomic append.
func (rw *recordWriter) flush() error {
	if rw.err != nil || len(rw.buf) == 0 {
		return rw.err
	}
	for len(rw.buf)%rw.block != 0 {
		rw.buf = append(rw.buf, '\n')
	}
	if _, err := rw.w.Write(rw.buf); err != nil {
		rw.err = err
		return err
	}
	rw.buf = rw.buf[:0]
	if rw.fl != nil {
		if err := rw.fl.Flush(); err != nil {
			rw.err = err
			return err
		}
	}
	return nil
}

// Close flushes the final batch and closes the underlying stream.
func (rw *recordWriter) Close() error {
	if rw.done {
		return rw.err
	}
	rw.done = true
	defer func() { rw.bufs.Give(rw.batch, rw.batch); rw.batch, rw.buf = nil, nil }()
	if err := rw.flush(); err != nil {
		rw.w.Close()
		return err
	}
	return rw.w.Close()
}

// countingWriter tracks bytes written to the committer stream.
type countingWriter struct {
	w dfs.FileWriter
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// openReduceOutput returns the reducer's output stream plus a commit
// function finishing (or abandoning) the attempt.
func (tt *TaskTracker) openReduceOutput(ctx context.Context, job *jobState, r int) (dfs.FileWriter, func(bool) error, error) {
	switch job.conf.OutputMode {
	case SharedAppend:
		// Figure 2: "all the reducers append to the same file". Each
		// flushed batch is one atomic append, and the record writer
		// flushes only at record boundaries so concurrent reducers'
		// blocks interleave without ever tearing a record (the
		// GFS-record-append discipline).
		path := job.conf.OutputDir + "/" + SharedOutputName
		w, err := tt.fs.Append(ctx, path)
		if err != nil {
			return nil, nil, err
		}
		rw := newRecordWriter(w, int(tt.fs.BlockSize()), &tt.segs)
		commit := func(ok bool) error {
			// Failed attempts keep already-appended records (at-least-
			// once semantics on retry, like GFS record append).
			if err := rw.Close(); err != nil && ok {
				return err
			}
			return nil
		}
		return rw, commit, nil

	default: // SeparateFiles
		// Figure 1: "each reducer writes to a separate file", via the
		// temp + rename committer.
		job.mu.Lock()
		attempt := job.reduceAttempts[r]
		job.mu.Unlock()
		tmp := fmt.Sprintf("%s/_temporary/attempt_%d_r%05d", job.conf.OutputDir, attempt, r)
		final := fmt.Sprintf("%s/part-r%05d", job.conf.OutputDir, r)
		w, err := tt.fs.Create(ctx, tmp)
		if err != nil {
			return nil, nil, err
		}
		commit := func(ok bool) error {
			if !ok {
				w.Close()
				if derr := tt.fs.Delete(ctx, tmp); derr != nil {
					slog.Debug("mapreduce: delete aborted attempt", "path", tmp, "err", derr)
				}
				return nil
			}
			if err := w.Close(); err != nil {
				return err
			}
			return tt.fs.Rename(ctx, tmp, final)
		}
		return w, commit, nil
	}
}
