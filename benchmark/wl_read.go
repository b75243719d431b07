package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"blobseer/internal/dfs"
)

// readUnderAppend reads pinned snapshots of a file 8x the page cache
// while a second mount keeps appending to it. The reader (closed loop)
// does Stat, OpenVersion on the version Stat saw, reads a window of
// blocks, Close; three windows in four start at a seeded random block
// (cold, sequential, so readahead works), every fourth is the fixed
// window at offset 0, which fits the cache. Beside it an open-loop
// appender adds one block plus Flush every bgPeriod (32.8 MB/s), each
// timed from the moment it fell due. It follows the clock, not the
// reader, so a faster write path does not load the reader more, and a
// read path that starves writes shows as an achieved rate below the
// schedule's.
type readUnderAppend struct {
	*deployment
	pay           *payloads
	preloadBlocks int
	window        int // blocks per window
	windows       int // windows per slice
	path          string

	bg *bgAppender
}

const (
	readBlock    = 64 << 10
	bgPeriod     = 2 * time.Millisecond // between background appends
	readHotEvery = 4
)

func readShape(e *env) (preload, window, windows int) {
	preload = e.n(8192, 64)
	window = 128
	if window > preload/4 {
		window = preload / 4
	}
	return preload, window, e.n(32, 4)
}

// windowStart is the plan: where window j of slice i begins.
func windowStart(seed int64, slice, j, preload, window int) int {
	if j%readHotEvery == readHotEvery-1 {
		return 0
	}
	return int(mix(mix(uint64(seed))^(uint64(slice)<<20|uint64(j))) % uint64(preload-window))
}

func planReadUnderAppend(seed int64, scale float64, h io.Writer) {
	pay := newPayloads(seed, readBlock)
	h.Write(pay.pool[:4096])
	preload, window, windows := readShape(&env{seed: seed, scale: scale})
	for i := 0; i < 8; i++ {
		for j := 0; j < windows; j++ {
			fmt.Fprintf(h, "%d;", windowStart(seed, i, j, preload, window))
		}
	}
}

func setupReadUnderAppend(ctx context.Context, e *env) (instance, error) {
	d, err := e.boot(clusterSpec{blockSize: readBlock})
	if err != nil {
		return nil, err
	}
	w := &readUnderAppend{deployment: d, pay: newPayloads(e.seed, readBlock), path: "/bench/log"}
	w.preloadBlocks, w.window, w.windows = readShape(e)
	if err := w.preload(ctx); err != nil {
		d.Close()
		return nil, err
	}
	w.bg, err = startBgAppender(ctx, w)
	if err != nil {
		d.Close()
		return nil, err
	}
	if _, err := w.slice(ctx, 0); err != nil { // warm-up
		w.Close()
		return nil, err
	}
	return w, nil
}

// preload writes the file the readers window over. Block i of the file
// is unit (client 0, seq i); the background appender continues the
// sequence, so any block read anywhere is checked against its index.
func (w *readUnderAppend) preload(ctx context.Context) error {
	fw, err := w.clients[1].Create(ctx, w.path)
	if err != nil {
		return err
	}
	buf := make([]byte, 16*readBlock)
	for b := 0; b < w.preloadBlocks; {
		n := 0
		for ; n < 16 && b < w.preloadBlocks; n, b = n+1, b+1 {
			w.pay.fill(buf[n*readBlock:(n+1)*readBlock], 0, uint64(b))
		}
		if _, err := fw.Write(buf[:n*readBlock]); err != nil {
			fw.Close()
			return err
		}
	}
	return fw.Close()
}

func (w *readUnderAppend) Close() error {
	if w.bg != nil {
		w.bg.stop()
	}
	return w.deployment.Close()
}

func (w *readUnderAppend) slice(ctx context.Context, i int) (sliceStat, error) {
	var st sliceStat
	tr := w.e.tr
	fs := w.clients[0]
	buf := make([]byte, readBlock)
	st.lat = make([]time.Duration, 0, w.windows*w.window)
	p := w.openWindow()
	bg0 := w.bg.appended()
	w.bg.start()
	for j := 0; j < w.windows; j++ {
		sp := tr.begin("bsfs.stat", -1, -1)
		fi, err := fs.Stat(ctx, w.path)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		sp = tr.begin("bsfs.open_version", -1, -1)
		r, err := fs.OpenVersion(ctx, w.path, fi.Version)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		// A pinned snapshot is exactly what Stat saw: whole blocks, the
		// same size, nothing newer behind its end.
		if r.Version() != fi.Version || r.Size() != fi.Size || fi.Size%readBlock != 0 || fi.Size < uint64(w.preloadBlocks)*readBlock {
			w.fail(fmt.Errorf("snapshot %d of size %d opened as version %d of size %d", fi.Version, fi.Size, r.Version(), r.Size()))
		}
		if n, err := r.ReadAt(buf[:1], int64(fi.Size)); n != 0 || !errors.Is(err, io.EOF) {
			w.fail(fmt.Errorf("read at the snapshot's end returned %d bytes, %v", n, err))
		}
		start := windowStart(w.e.seed, i, j, w.preloadBlocks, w.window)
		for b := start; b < start+w.window; b++ {
			opID := int64(i)<<32 | int64(j)<<16 | int64(b-start)
			t0 := time.Now()
			sp := tr.begin("bsfs.read", -1, opID)
			err := readFull(r, buf, int64(b)*readBlock)
			tr.end(sp)
			st.lat = append(st.lat, time.Since(t0))
			if err != nil {
				r.Close()
				return st, err
			}
			if c, seq, err := w.pay.check(buf); err != nil || c != 0 || seq != uint64(b) {
				w.fail(fmt.Errorf("block %d of version %d: unit (%d, %d): %v", b, fi.Version, c, seq, err))
			}
		}
		sp = tr.begin("bsfs.reader_close", -1, -1)
		err = r.Close()
		tr.end(sp)
		if err != nil {
			return st, err
		}
	}
	appends := w.bg.appended() - bg0
	p.close(&st)
	w.bg.pause() // clock stopped: the append in flight is acked, the schedule's backlog dropped
	st.ops = w.windows * w.window
	st.userBytes = int64(st.ops) * readBlock
	w.attempted.Add(int64(st.ops))
	st.bgMBps = float64(appends) * readBlock / 1e6 / st.wall.Seconds()
	// How many appends fall into a slice follows the reader's speed,
	// that is, the machine's; take their calibrated cost out so that
	// the allocation counts are per block read.
	st.mallocs = less(st.mallocs, float64(appends)*w.bg.mallocsPerAppend)
	st.allocBytes = less(st.allocBytes, float64(appends)*w.bg.bytesPerAppend)

	fi, err := w.verifier.Stat(ctx, w.path)
	if err != nil {
		return st, err
	}
	st.stored = float64(w.c.Blob.ProviderBytes()) / float64(fi.Size)
	st.imbalance = w.imbalance()
	return st, nil
}

// finish stops the appender and checks that every block it was acked
// for is in the file, in order, after the preloaded ones.
func (w *readUnderAppend) finish(ctx context.Context) (map[string]float64, error) {
	w.bg.stop()
	extra := w.bg.metrics()
	acked := w.bg.appended()
	fi, err := w.verifier.Stat(ctx, w.path)
	if err != nil {
		return nil, err
	}
	if want := uint64(w.preloadBlocks+acked) * readBlock; fi.Size != want {
		w.fail(fmt.Errorf("file size %d after %d acked background appends, want %d", fi.Size, acked, want))
		return extra, nil
	}
	r, err := w.verifier.OpenVersion(ctx, w.path, fi.Version)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, readBlock)
	for b := w.preloadBlocks; b < w.preloadBlocks+acked; b++ {
		if err := readFull(r, buf, int64(b)*readBlock); err != nil {
			return nil, err
		}
		if c, seq, err := w.pay.check(buf); err != nil || c != 0 || seq != uint64(b) {
			w.fail(fmt.Errorf("appended block %d: unit (%d, %d): %v", b, c, seq, err))
			break
		}
	}
	return extra, nil
}

// less is a minus b, floored at zero.
func less(a uint64, b float64) uint64 {
	if b >= float64(a) {
		return 0
	}
	return a - uint64(b)
}

// bgAppender is the writer beside the reader: while started it appends
// one block, with Flush, at every multiple of bgPeriod since its start,
// whether or not the previous one is done in time (open loop: one that
// is late is issued at once, and timed from when it fell due).
type bgAppender struct {
	w   *readUnderAppend
	fw  dfs.FileWriter
	buf []byte

	// What one append allocates in the whole process, measured at
	// set-up with the reader idle.
	mallocsPerAppend, bytesPerAppend float64

	stopc, done chan struct{} // of the running schedule; nil while paused

	mu    sync.Mutex
	acked int             // blocks appended since the preload, calibration included
	lat   []time.Duration // scheduled appends: from due time to ack
	late  []time.Duration // scheduled appends: from due time to issue
	err   error
}

func startBgAppender(ctx context.Context, w *readUnderAppend) (*bgAppender, error) {
	fw, err := w.clients[1].Append(ctx, w.path)
	if err != nil {
		return nil, err
	}
	b := &bgAppender{w: w, fw: fw, buf: make([]byte, readBlock)}
	// Calibrate: a few appends to open connections, then the cost of a
	// run of them, reader idle.
	cal := w.e.n(256, 8)
	var m0, m1 runtime.MemStats
	for i := 0; i < 16+cal; i++ {
		if i == 16 {
			runtime.ReadMemStats(&m0)
		}
		if err := b.append(); err != nil {
			fw.Close()
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	b.mallocsPerAppend = float64(m1.Mallocs-m0.Mallocs) / float64(cal)
	b.bytesPerAppend = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(cal)
	return b, nil
}

// append adds the next block of the sequence and waits for its ack.
func (b *bgAppender) append() error {
	b.w.pay.fill(b.buf, 0, uint64(b.w.preloadBlocks+b.appended()))
	if _, err := b.fw.Write(b.buf); err != nil {
		return err
	}
	if err := b.fw.(dfs.Flusher).Flush(); err != nil {
		return err
	}
	b.mu.Lock()
	b.acked++
	b.mu.Unlock()
	return nil
}

// start begins a schedule at the present moment.
func (b *bgAppender) start() {
	b.stopc, b.done = make(chan struct{}), make(chan struct{})
	go b.run(time.Now(), b.stopc, b.done)
}

func (b *bgAppender) run(t0 time.Time, stopc, done chan struct{}) {
	defer close(done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * bgPeriod)
		timer.Reset(time.Until(due)) // fires at once when the schedule is behind
		select {
		case <-stopc:
			return
		case <-timer.C:
		}
		issued := time.Now()
		err := b.append()
		b.mu.Lock()
		if err != nil {
			b.err = err
			b.mu.Unlock()
			return
		}
		b.lat = append(b.lat, time.Since(due))
		b.late = append(b.late, issued.Sub(due))
		b.mu.Unlock()
	}
}

// pause ends the running schedule after the append in flight.
func (b *bgAppender) pause() {
	if b.stopc != nil {
		close(b.stopc)
		<-b.done
		b.stopc, b.done = nil, nil
	}
}

// stop ends the appender for good; safe to call twice.
func (b *bgAppender) stop() {
	b.pause()
	if b.fw == nil {
		return
	}
	if err := b.fw.Close(); err != nil {
		b.w.fail(fmt.Errorf("background appender close: %w", err))
	}
	b.fw = nil
	if b.err != nil {
		b.w.fail(fmt.Errorf("background appender: %w", b.err))
	}
}

// appended is how many blocks have been acked.
func (b *bgAppender) appended() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.acked
}

func (b *bgAppender) metrics() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return map[string]float64{
		"bsfs.bg_append_p50_ms":  ms(durQuantile(b.lat, 0.5)),
		"bsfs.bg_append_late_ms": ms(durQuantile(b.late, 0.5)),
	}
}
