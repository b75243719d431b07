package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blobseer"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
)

// env is what one pass over one workload runs with.
type env struct {
	seed   int64
	scale  float64
	outDir string
	tr     *tracer   // nil in the untraced pass
	nt     *netTrace // set by boot in the traced pass
	fault  string    // self-test only: "flip" a payload byte, "drop" a record
}

// n scales an op count, keeping at least min.
func (e *env) n(full, min int) int {
	v := int(float64(full)*e.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// lanProfile is the modeled wire of append_shared_lan.
func lanProfile() simnet.Config {
	var c simnet.Config
	c.Bandwidth = 100 << 20
	c.Latency = time.Millisecond
	c.FrameOverhead = 64
	c.SleepFloor = 100 * time.Microsecond
	return c
}

// clusterSpec is the part of the deployment a workload chooses; the
// rest (8 providers, 3 metadata providers, round-robin placement, one
// page replica, default depths and cache) is the same everywhere.
type clusterSpec struct {
	blockSize uint64
	lan       bool
	vmShards  int
	journal   bool
}

// deployment is a booted cluster plus the harness's mounts on it.
type deployment struct {
	e          *env
	c          *blobseer.Cluster
	clients    []*blobseer.Mount // load generators, one host each
	verifier   *blobseer.Mount   // reads back with the clock stopped
	journalDir string

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error
}

const nproc = 2 // client goroutines generating load

func (e *env) boot(spec clusterSpec) (*deployment, error) {
	d := &deployment{e: e}
	// Options is filled by assignment to a zero value, never as a
	// composite literal, so embedding its fields elsewhere keeps this
	// compiling (see the pinned API list in README.md).
	var o blobseer.Options
	o.Providers = 8
	o.MetaProviders = 3
	o.PageReplicas = 1
	o.BlockSize = spec.blockSize
	o.VMShards = spec.vmShards
	if spec.journal {
		dir, err := os.MkdirTemp(e.outDir, "journal-")
		if err != nil {
			return nil, err
		}
		d.journalDir = dir
		o.JournalDir = dir
	}
	var net transport.Network
	if spec.lan {
		net = simnet.New(transport.NewMemNet(), lanProfile())
	}
	if e.tr != nil {
		if net == nil {
			net = transport.NewMemNet()
		}
		e.nt = newNetTrace(net)
		net = e.nt
	}
	o.Net = net
	c, err := blobseer.NewCluster(o)
	if err != nil {
		d.removeJournal()
		return nil, err
	}
	d.c = c
	for i := 0; i < nproc; i++ {
		d.clients = append(d.clients, c.Mount(fmt.Sprintf("client-%d", i)))
	}
	d.verifier = c.Mount("client-v")
	return d, nil
}

func (d *deployment) removeJournal() {
	if d.journalDir != "" {
		os.RemoveAll(d.journalDir)
	}
}

func (d *deployment) Close() error {
	for _, m := range d.clients {
		m.Close()
	}
	d.verifier.Close()
	err := d.c.Close()
	d.removeJournal()
	return err
}

func (d *deployment) counts() (int64, int64) { return d.attempted.Load(), d.failed.Load() }

// fail counts one failed op or verification mismatch and keeps the
// first cause for the report.
func (d *deployment) fail(err error) {
	d.failed.Add(1)
	d.errMu.Lock()
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.errMu.Unlock()
}

func (d *deployment) firstFailure() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.firstErr
}

// cacheDelta is the clients' read-path counters (or a difference).
type cacheDelta struct {
	hits, misses, readahead, evictions, fetches uint64
}

// state is what the public accessors show of the layers' work so far.
type state struct {
	cache        cacheDelta
	journalRecs  uint64
	journalBytes int64
	dhtNodes     int64
	pages        int64
}

func (d *deployment) state() state {
	var s state
	for _, m := range d.clients {
		rs := m.BlobClient().ReadStats().Snapshot()
		s.cache.hits += rs.Hits
		s.cache.misses += rs.Misses
		s.cache.readahead += rs.Readahead
		s.cache.evictions += rs.Evictions
		s.cache.fetches += rs.ProviderFetches
	}
	for i := range d.c.Blob.VMAddrs() {
		if vm := d.c.Blob.ShardVM(i); vm != nil {
			s.journalRecs += vm.JournalRecords()
			s.journalBytes += vm.JournalBytes()
		}
	}
	for _, m := range d.c.Blob.Metas {
		s.dhtNodes += int64(m.Len())
	}
	for _, p := range d.c.Blob.Providers {
		s.pages += int64(p.Store().Len())
	}
	return s
}

// window brackets a slice's timed section: wall, CPU and allocation
// innermost, then the state (and, when traced, transport) snapshots,
// whose accessors run with the clock stopped.
type window struct {
	d    *deployment
	s0   state
	n0   netCounts
	ms0  runtime.MemStats
	cpu0 time.Duration
	t0   time.Time
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (d *deployment) openWindow() *window {
	p := &window{d: d, s0: d.state()}
	if d.e.nt != nil {
		p.n0 = d.e.nt.snapshot()
	}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = processCPU()
	p.t0 = time.Now()
	return p
}

func (p *window) close(st *sliceStat) {
	st.wall = time.Since(p.t0)
	st.cpu = processCPU() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - p.ms0.Mallocs
	st.allocBytes = ms.TotalAlloc - p.ms0.TotalAlloc
	st.gcCycles = ms.NumGC - p.ms0.NumGC
	st.gcPause = time.Duration(ms.PauseTotalNs - p.ms0.PauseTotalNs)
	st.heapInuse = ms.HeapInuse
	if p.d.e.nt != nil {
		st.net = p.d.e.nt.snapshot().sub(p.n0)
	}
	s1 := p.d.state()
	st.cache = cacheDelta{
		hits:      s1.cache.hits - p.s0.cache.hits,
		misses:    s1.cache.misses - p.s0.cache.misses,
		readahead: s1.cache.readahead - p.s0.cache.readahead,
		evictions: s1.cache.evictions - p.s0.cache.evictions,
		fetches:   s1.cache.fetches - p.s0.cache.fetches,
	}
	st.journalRecs = s1.journalRecs - p.s0.journalRecs
	st.journalBytes = s1.journalBytes - p.s0.journalBytes
	st.dhtNodes = s1.dhtNodes - p.s0.dhtNodes
	st.pages = s1.pages - p.s0.pages
}

// imbalance is the fullest provider's bytes over the mean.
func (d *deployment) imbalance() float64 {
	var max, total int64
	for _, p := range d.c.Blob.Providers {
		b := p.Store().BytesUsed()
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(d.c.Blob.Providers)) / float64(total)
}

// awaitStored waits, clock stopped, until the providers hold no more
// than base bytes: a deleted file's pages are reclaimed asynchronously,
// and the next slice must start from the same heap and page store as
// the last. It returns how long that took and what was left over.
func (d *deployment) awaitStored(ctx context.Context, base int64) (time.Duration, int64) {
	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for {
		left := d.c.Blob.ProviderBytes() - base
		if left <= 0 || time.Now().After(deadline) || ctx.Err() != nil {
			if left < 0 {
				left = 0
			}
			return time.Since(start), left
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readFull reads exactly len(buf) bytes at off.
func readFull(r io.ReaderAt, buf []byte, off int64) error {
	n, err := r.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("read %d bytes at %d: got %d: %w", len(buf), off, n, err)
}
