package bsfs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"blobseer/internal/blob"
	"blobseer/internal/cache"
	"blobseer/internal/dfs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
)

// Tuning is what can be tuned about a BSFS mount. It is declared here
// once; DeployConfig, and through it the facade's Options and the
// experiment Config, embed it, and resolved is the one function that
// gives 0 and negative values their meaning. (The fourth mount knob,
// the page-cache budget, belongs to the blob client that owns the
// cache: blob.ClientPolicy.CacheBytes.)
type Tuning struct {
	// BlockSize is the page size of newly created files and the unit
	// of client-side buffering/prefetching (the paper uses 64 MB to
	// match HDFS chunks, and 0 means that; tests and experiments scale
	// it down).
	BlockSize uint64

	// WriteDepth is how many blocks one writer keeps in flight, and the
	// most it sends as one append. The whole blocks a Write call fills
	// leave as runs of up to WriteDepth blocks, each run one BlobSeer
	// append of that many pages, started without waiting for the
	// previous run's data path: only BlobSeer's serialized version
	// assignment is ordered. A Write of at most WriteDepth whole blocks
	// on a block-aligned writer is therefore one atomic, contiguous
	// append, even among concurrent appenders. 1 is the fully
	// synchronous writer, a block per append; 0 (or negative) means
	// DefaultWriteDepth.
	WriteDepth int

	// ReadDepth is the read-side twin of WriteDepth: how many blocks
	// the readahead engine keeps in flight ahead of each sequential
	// reader. 0 means DefaultReadDepth; negative disables readahead
	// (the fully synchronous reader). Readahead stages pages through
	// the mount's page cache, so a mount without a cache has none.
	ReadDepth int
}

// Defaults of an unset Tuning.
const (
	DefaultBlockSize  = 64 << 20
	DefaultWriteDepth = 4
	DefaultReadDepth  = 4
)

// resolved returns the effective tuning of a mount whose page cache is
// on or off: defaults filled in, and ReadDepth 0 meaning "readahead
// off" from here on.
func (t Tuning) resolved(cacheOn bool) Tuning {
	if t.BlockSize == 0 {
		t.BlockSize = DefaultBlockSize
	}
	if t.WriteDepth <= 0 {
		t.WriteDepth = DefaultWriteDepth
	}
	switch {
	case t.ReadDepth < 0 || !cacheOn:
		t.ReadDepth = 0
	case t.ReadDepth == 0:
		t.ReadDepth = DefaultReadDepth
	}
	return t
}

// Config configures a BSFS client mount: the BlobSeer client beneath
// it, the namespace manager's endpoint, and the mount's tuning.
type Config struct {
	blob.ClientConfig
	Namespace transport.Addr
	Tuning
}

// FS is a BSFS mount implementing dfs.FileSystem.
type FS struct {
	cfg  Config
	pool *rpc.Pool
	bc   *blob.Client

	// blocks is the free list of the writers' block buffers: a run's
	// blocks go back once its data path is over, for any writer to take.
	blocks transport.Recycler[[]byte]

	// onClose, when set by the deployment, runs once on Close — it
	// unregisters the mount's monitor source.
	onClose func()
}

var (
	_ dfs.FileSystem          = (*FS)(nil)
	_ dfs.VersionedFileSystem = (*FS)(nil)
)

// mapVerErr translates the blob layer's internal version-lifecycle
// sentinels into the stable dfs error surface at the bsfs boundary, so
// framework and application code matches dfs.ErrVersionGone /
// dfs.ErrNotExist instead of internal error text that happens to
// survive RPC boundaries. A BLOB that is gone is a file that was
// deleted, also under its writer. Other errors pass through unchanged.
func mapVerErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, blob.ErrVersionCollected):
		return fmt.Errorf("%w (%v)", dfs.ErrVersionGone, err)
	case errors.Is(err, blob.ErrNoSuchVersion), errors.Is(err, blob.ErrNotPublished),
		errors.Is(err, blob.ErrBlobNotFound):
		return fmt.Errorf("%w (%v)", dfs.ErrNotExist, err)
	}
	return err
}

// mapWriteErr is mapVerErr on the writer's paths, where a write-record
// history cut short is a deleted file too: this mount's Delete purges
// the file's history, and an append whose assign raced it finds the
// history gone. A reader's gap is not mapped; nothing shows it can come
// only from a delete.
func mapWriteErr(err error) error {
	if errors.Is(err, blob.ErrHistoryGap) {
		return fmt.Errorf("%w (%v)", dfs.ErrNotExist, err)
	}
	return mapVerErr(err)
}

// New returns a BSFS mount for the given deployment.
func New(cfg Config) *FS {
	bc := blob.NewClient(cfg.ClientConfig)
	cfg.Tuning = cfg.Tuning.resolved(bc.PageCache() != nil)
	return &FS{
		cfg:  cfg,
		pool: rpc.NewPool(cfg.Net, transport.MakeAddr(cfg.Host, "bsfs-client")),
		bc:   bc,
	}
}

// Close releases the mount's connections and its free block buffers.
func (fs *FS) Close() error {
	if fs.onClose != nil {
		fs.onClose()
		fs.onClose = nil
	}
	fs.blocks.Clear()
	fs.pool.Close()
	return fs.bc.Close()
}

// Name implements dfs.FileSystem.
func (fs *FS) Name() string { return "bsfs" }

// BlockSize implements dfs.FileSystem.
func (fs *FS) BlockSize() uint64 { return fs.cfg.BlockSize }

// BlobClient exposes the underlying BlobSeer client (tools, tests).
func (fs *FS) BlobClient() *blob.Client { return fs.bc }

// Tuning reports the mount's effective tuning: defaults resolved, and
// ReadDepth 0 when readahead is off.
//
//lint:unusedexport public API of a Mount, named in README
func (fs *FS) Tuning() Tuning { return fs.cfg.Tuning }

// Create implements dfs.FileSystem.
func (fs *FS) Create(ctx context.Context, path string) (dfs.FileWriter, error) {
	return fs.openWriter(ctx, path, true)
}

// Append implements dfs.FileSystem. BSFS supports concurrent appends:
// each run of buffered blocks (see fileWriter) is appended atomically
// via BlobSeer.
func (fs *FS) Append(ctx context.Context, path string) (dfs.FileWriter, error) {
	return fs.openWriter(ctx, path, false)
}

func (fs *FS) openWriter(ctx context.Context, path string, exclusive bool) (dfs.FileWriter, error) {
	var ent EntryResp
	err := fs.pool.Call(ctx, fs.cfg.Namespace, NSCreate,
		&CreateReq{Path: path, PageSize: fs.cfg.BlockSize, Exclusive: exclusive}, &ent)
	if err != nil {
		return nil, err
	}
	return &fileWriter{
		ctx:  ctx,
		fs:   fs,
		path: path,
		b:    fs.bc.Handle(ent.Blob, ent.PageSize),
		buf:  transport.TakeBytes(&fs.blocks, int(ent.PageSize)),
		sem:  make(chan struct{}, fs.cfg.WriteDepth),
	}, nil
}

// BlockRecycling returns the accounting of the mount's block buffers.
//
//lint:unusedexport test hook: mapreduce's tests count the buffers reducers reuse
func (fs *FS) BlockRecycling() transport.RecycleStats { return fs.blocks.Stats() }

// Open implements dfs.FileSystem. The reader holds a snapshot of the
// latest published version at open time; Refresh moves it forward.
func (fs *FS) Open(ctx context.Context, path string) (dfs.FileReader, error) {
	return fs.OpenVersion(ctx, path, 0)
}

// OpenVersion implements dfs.VersionedFileSystem: it opens the file's
// published snapshot ver (0 = latest, identical to Open). A non-zero
// ver gives a fixed-version reader. Either way the reader reads through
// a blob.Snapshot, so the version is pinned against garbage collection
// before its metadata is even read and stays pinned until Close: the
// reader never observes dfs.ErrVersionGone mid-stream, however slowly
// it streams. Opening a version already behind the retention window
// fails up front with dfs.ErrVersionGone.
func (fs *FS) OpenVersion(ctx context.Context, path string, ver uint64) (dfs.VersionedReader, error) {
	s, blockSize, err := fs.snapshotAt(ctx, path, ver)
	if err != nil {
		return nil, err
	}
	r := &fileReader{ctx: ctx, blockSize: blockSize, fixed: ver != 0}
	r.snap.Store(s)
	if fs.cfg.ReadDepth > 0 {
		// Each block is one BlobSeer page, fetched into the mount's
		// shared cache ahead of the reader. Prefetch clamps against the
		// version's own size, so a stale snapshot is harmless.
		r.ra = cache.NewReadahead(ctx, fs.cfg.ReadDepth, fs.bc.ReadStats(),
			func(fctx context.Context, page uint64) {
				//lint:droppederr readahead is advisory; a miss costs one demand fetch and the read path reports real failures
				_ = r.snap.Load().Prefetch(fctx, page*blockSize, blockSize)
			})
	}
	return r, nil
}

// SnapshotAt opens a pinned BLOB-level snapshot of the file at version
// ver (0 = latest published): lower-level than OpenVersion —
// byte-offset ReadAt, page views, page locations — with the same
// pin-for-lifetime guarantee. Close the snapshot to release its pin.
//
//lint:unusedexport public API of a Mount, named in README and doc.go
func (fs *FS) SnapshotAt(ctx context.Context, path string, ver uint64) (*blob.Snapshot, error) {
	s, _, err := fs.snapshotAt(ctx, path, ver)
	return s, err
}

// snapshotAt is SnapshotAt plus the file's block size.
func (fs *FS) snapshotAt(ctx context.Context, path string, ver uint64) (*blob.Snapshot, uint64, error) {
	ent, err := fs.lookup(ctx, path)
	if err != nil {
		return nil, 0, err
	}
	if ent.IsDir {
		return nil, 0, dfs.ErrIsDir
	}
	s, err := fs.bc.Handle(ent.Blob, ent.PageSize).At(ctx, ver)
	if err != nil {
		return nil, 0, mapVerErr(err)
	}
	return s, ent.PageSize, nil
}

// Versions implements dfs.VersionedFileSystem: the file's published
// snapshots still inside the retention window, oldest first.
func (fs *FS) Versions(ctx context.Context, path string) ([]dfs.VersionInfo, error) {
	ent, err := fs.lookup(ctx, path)
	if err != nil {
		return nil, err
	}
	if ent.IsDir {
		return nil, dfs.ErrIsDir
	}
	infos, err := fs.bc.Handle(ent.Blob, ent.PageSize).History(ctx, 0)
	if err != nil {
		return nil, mapVerErr(err)
	}
	out := make([]dfs.VersionInfo, 0, len(infos))
	for _, i := range infos {
		out = append(out, dfs.VersionInfo{Version: i.Ver, Size: i.Size, Blocks: i.Pages})
	}
	return out, nil
}

// WaitVersion implements dfs.VersionedFileSystem: it blocks until a
// snapshot newer than after publishes. Versions are assigned densely,
// so the next snapshot after `after` is exactly version after+1; the
// wait rides the version manager's publication waiters, costing no
// polling.
func (fs *FS) WaitVersion(ctx context.Context, path string, after uint64) (dfs.VersionInfo, error) {
	ent, err := fs.lookup(ctx, path)
	if err != nil {
		return dfs.VersionInfo{}, err
	}
	if ent.IsDir {
		return dfs.VersionInfo{}, dfs.ErrIsDir
	}
	info, err := fs.bc.Handle(ent.Blob, ent.PageSize).WaitPublished(ctx, after+1)
	if err != nil {
		return dfs.VersionInfo{}, mapVerErr(err)
	}
	return dfs.VersionInfo{Version: info.Ver, Size: info.Size, Blocks: info.Pages}, nil
}

func (fs *FS) lookup(ctx context.Context, path string) (EntryResp, error) {
	var ent EntryResp
	err := fs.pool.Call(ctx, fs.cfg.Namespace, NSLookup, &dfs.PathReq{Path: path}, &ent)
	return ent, err
}

// Stat implements dfs.FileSystem. A file's size is that of its BLOB's
// latest published version.
func (fs *FS) Stat(ctx context.Context, path string) (dfs.FileInfo, error) {
	ent, err := fs.lookup(ctx, path)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	clean, err := dfs.CleanPath(path)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	fi := dfs.FileInfo{Path: clean, IsDir: ent.IsDir}
	if !ent.IsDir {
		info, err := fs.bc.Handle(ent.Blob, ent.PageSize).Latest(ctx)
		if err != nil {
			return dfs.FileInfo{}, mapVerErr(err)
		}
		fi.Size = info.Size
		fi.Blocks = info.Pages
		// The version whose Size this is: "Stat then OpenVersion" pins
		// exactly the snapshot the caller just observed.
		fi.Version = info.Ver
	}
	return fi, nil
}

// List implements dfs.FileSystem. The namespace manager names dir's
// children and Stat fills in each file among them, so the two never
// disagree. A file deleted in between (its entry gone, or its BLOB
// already retired) is left out.
func (fs *FS) List(ctx context.Context, dir string) ([]dfs.FileInfo, error) {
	var resp dfs.ListResp
	if err := fs.pool.Call(ctx, fs.cfg.Namespace, NSList, &dfs.PathReq{Path: dir}, &resp); err != nil {
		return nil, err
	}
	infos := resp.Infos[:0]
	for _, fi := range resp.Infos {
		if !fi.IsDir {
			st, err := fs.Stat(ctx, fi.Path)
			if errors.Is(err, dfs.ErrNotExist) || errors.Is(err, dfs.ErrVersionGone) {
				continue
			}
			if err != nil {
				return nil, err
			}
			fi = st
		}
		infos = append(infos, fi)
	}
	return infos, nil
}

// Rename implements dfs.FileSystem.
func (fs *FS) Rename(ctx context.Context, src, dst string) error {
	return fs.pool.Call(ctx, fs.cfg.Namespace, NSRename, &dfs.PathPairReq{Src: src, Dst: dst}, nil)
}

// Delete implements dfs.FileSystem. Deleting a file schedules its
// backing BLOB for reclamation (the namespace manager retires it at the
// version manager; the garbage collector frees the pages), so this
// mount's cached pages, slots, and version infos for that BLOB are
// purged too — other mounts purge lazily when a read surfaces
// dfs.ErrVersionGone.
func (fs *FS) Delete(ctx context.Context, path string) error {
	ent, lerr := fs.lookup(ctx, path)
	if err := fs.pool.Call(ctx, fs.cfg.Namespace, NSDelete, &dfs.PathReq{Path: path}, nil); err != nil {
		return err
	}
	if lerr == nil && !ent.IsDir && ent.Blob != 0 {
		fs.bc.PurgeBlob(ent.Blob)
	}
	return nil
}

// Mkdir implements dfs.FileSystem.
func (fs *FS) Mkdir(ctx context.Context, path string) error {
	return fs.pool.Call(ctx, fs.cfg.Namespace, NSMkdir, &dfs.PathReq{Path: path}, nil)
}

// BlockLocations implements dfs.FileSystem via the primitive of §3.2
// that "exposes the pages distribution to providers" for the scheduler.
func (fs *FS) BlockLocations(ctx context.Context, path string, off, length uint64) ([]dfs.BlockLoc, error) {
	return fs.BlockLocationsAt(ctx, path, 0, off, length)
}

// BlockLocationsAt implements dfs.VersionedFileSystem: BlockLocations
// resolved at snapshot ver (0 = latest), so a scheduler that pinned a
// job's input version places tasks by the pinned snapshot's page
// distribution, not a concurrently growing latest.
func (fs *FS) BlockLocationsAt(ctx context.Context, path string, ver uint64, off, length uint64) ([]dfs.BlockLoc, error) {
	ent, err := fs.lookup(ctx, path)
	if err != nil {
		return nil, err
	}
	if ent.IsDir {
		return nil, dfs.ErrIsDir
	}
	b := fs.bc.Handle(ent.Blob, ent.PageSize)
	var info blob.VersionInfo
	if ver != 0 {
		if info, err = b.GetVersion(ctx, ver); err == nil && !info.Published {
			err = blob.ErrNotPublished
		}
	} else {
		info, err = b.Latest(ctx)
	}
	if err != nil {
		return nil, mapVerErr(err)
	}
	if off >= info.Size {
		return nil, nil
	}
	locs, err := b.PageLocations(ctx, info.Ver, off, length)
	if err != nil {
		return nil, mapVerErr(err)
	}
	out := make([]dfs.BlockLoc, 0, len(locs))
	for _, l := range locs {
		start := l.Index * ent.PageSize
		end := start + ent.PageSize
		if end > info.Size {
			end = info.Size
		}
		out = append(out, dfs.BlockLoc{Offset: start, Length: end - start, Hosts: l.Hosts})
	}
	return out, nil
}

// MetadataEntries implements dfs.FileSystem: the number of records the
// centralized namespace manager holds. Page locations live in the
// scalable metadata DHT, so they do not count against the centralized
// server — the heart of the paper's file-count argument.
func (fs *FS) MetadataEntries(ctx context.Context) (uint64, error) {
	var resp dfs.CountResp
	if err := fs.pool.Call(ctx, fs.cfg.Namespace, NSEntries, nil, &resp); err != nil {
		return 0, err
	}
	return resp.Count, nil
}

//
// Writer: client-side caching of §3.2 ("delays committing writes until
// a whole block has been filled in the cache"). The unit of append is
// the run: the whole blocks one Write call fills, cut every
// Tuning.WriteDepth blocks, go out as one BlobSeer append — one
// version, one metadata commit, however many pages. Where a run ends
// depends on the sizes of
// the Write calls and on WriteDepth, never on what is in flight. A
// Write of at most WriteDepth whole blocks on a block-aligned writer is
// therefore one atomic, contiguous append, even in a file other
// writers are appending to. Runs are pipelined: version assignment
// stays in the caller's goroutine, so one writer's runs land in write
// order; everything after it overlaps across runs, up to WriteDepth
// blocks in flight.
//

type fileWriter struct {
	ctx  context.Context
	fs   *FS
	path string
	b    *blob.Blob

	buf     []byte   // the block being filled
	run     [][]byte // full blocks of the current Write, each holding a slot
	lastVer uint64   // the version of the last run launched
	closed  bool

	sem chan struct{}  // one slot per block in a run, pending or in flight
	wg  sync.WaitGroup // watchers of in-flight runs

	mu   sync.Mutex
	werr error // first error from any run's data path
}

func (w *fileWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

func (w *fileWriter) setErr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = mapWriteErr(err)
	}
	w.mu.Unlock()
}

// AtomicLimit implements dfs.Flusher: a run is at most WriteDepth
// blocks.
func (w *fileWriter) AtomicLimit() int { return cap(w.sem) * int(w.b.PageSize()) }

// Write implements io.Writer. The blocks p fills leave as runs of up to
// WriteDepth blocks, the last one when p is consumed; bytes short of a
// block stay buffered for the next Write, Flush or Close.
func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("bsfs: write to closed file %s", w.path)
	}
	if err := w.firstErr(); err != nil {
		return 0, err
	}
	total := 0
	bs := int(w.b.PageSize())
	for len(p) > 0 {
		space := bs - len(w.buf)
		n := len(p)
		if n > space {
			n = space
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		if len(w.buf) == bs {
			w.join()
			if len(w.run) == cap(w.sem) {
				if err := w.launch(); err != nil {
					return total, err
				}
			}
		}
	}
	return total, w.launch()
}

// join moves the buffered block to the end of the pending run, blocking
// only when WriteDepth blocks already hold a pipeline slot.
func (w *fileWriter) join() {
	w.sem <- struct{}{}
	if w.run == nil {
		w.run = make([][]byte, 0, cap(w.sem))
	}
	w.run = append(w.run, w.buf)
	// Taken after the slot: the block that freed it is back by now, so
	// a writer owns at most WriteDepth+1 buffers however long it lives.
	w.buf = transport.TakeBytes(&w.fs.blocks, int(w.b.PageSize()))
}

// launch starts the pending run's append and returns without waiting
// for its data path. The assignment happens here, in the caller's
// goroutine, which keeps this writer's runs in write order. However the
// run ends, its slots come back, and its buffers to the mount unless
// something may still be reading them.
func (w *fileWriter) launch() error {
	run := w.run
	if len(run) == 0 {
		return nil
	}
	w.run = nil
	err := w.firstErr()
	var p *blob.PendingWrite
	if err == nil {
		p, err = w.b.AppendAsync(w.ctx, run)
	}
	if err != nil {
		w.setErr(err)
		w.release(run, true) // nothing was started, nothing references the blocks
		return mapWriteErr(err)
	}
	w.lastVer = p.Result().Ver
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_, err := p.Wait(w.ctx)
		select {
		case <-p.Done():
			// The data path is over: every page was marshalled into
			// its own frame, and nothing references the blocks.
			w.release(run, true)
		default:
			// Wait left on a cancelled context with page transfers
			// still reading the blocks; the collector gets these, and
			// the mount stops counting them.
			w.release(run, false)
		}
		if err != nil {
			w.setErr(err)
		}
	}()
	return nil
}

// release gives back the slots of a run that is over and, when nothing
// can read its blocks any more, the blocks: buffers first, so whoever
// gets a slot finds the buffer that freed it.
func (w *fileWriter) release(run [][]byte, recycle bool) {
	for _, block := range run {
		if recycle {
			w.fs.blocks.Give(block, block)
		} else {
			w.fs.blocks.Forget(block)
		}
	}
	for range run {
		<-w.sem
	}
}

// drain waits for every in-flight run and reports the first error the
// pipeline hit.
func (w *fileWriter) drain() error {
	w.wg.Wait()
	return w.firstErr()
}

// Flush appends the buffered bytes immediately (as one atomic BlobSeer
// append) instead of waiting for a full block, then drains the
// pipeline. Writers that need record atomicity across concurrent
// appenders — the reducers of a shared-append job — flush at record
// boundaries.
func (w *fileWriter) Flush() error {
	if w.closed {
		return fmt.Errorf("bsfs: flush of closed file %s", w.path)
	}
	if err := w.launchTail(); err != nil {
		return err
	}
	return w.drain()
}

// launchTail sends the partly filled block, if any, as a run of one.
func (w *fileWriter) launchTail() error {
	if len(w.buf) > 0 {
		w.join()
	}
	return w.launch()
}

// Close flushes the tail block, drains the pipeline, and waits until
// this writer's last version is published — versions publish in
// assignment order, so that covers every block — making data readable
// when Close returns. The empty block buffer goes back to the mount.
func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	defer func() { w.fs.blocks.Give(w.buf, w.buf) }() // the buffer after the tail left
	if err := w.launchTail(); err != nil {
		w.wg.Wait()
		return err
	}
	if err := w.drain(); err != nil {
		return err
	}
	if w.lastVer > 0 {
		if _, err := w.b.WaitPublished(w.ctx, w.lastVer); err != nil {
			return mapWriteErr(err)
		}
	}
	return nil
}

//
// Reader: whole-block reads through the mount's shared page cache
// (§3.2: the client "prefetches a whole block when the requested data
// is not already cached"), with up to Tuning.ReadDepth blocks kept in
// flight ahead of a sequential stream by the readahead engine — the
// read-side twin of the writer's WriteDepth pipeline. The reader is a
// dfs.BlockCursor and that window over a blob.Snapshot, which owns the
// GC pin.
//

type fileReader struct {
	ctx       context.Context
	blockSize uint64

	// fixed marks a fixed-version reader (OpenVersion with ver != 0):
	// it serves exactly one immutable snapshot, so Refresh never moves
	// it to a newer version.
	fixed bool

	// snap is the pinned snapshot every read goes through; the pin, its
	// lease renewal and its release are the snapshot's. It is atomic
	// because the readahead goroutines load it concurrently with
	// Refresh.
	snap atomic.Pointer[blob.Snapshot]

	cur dfs.BlockCursor
	ra  *cache.Readahead // nil when readahead is disabled
}

// Block implements dfs.BlockSource. Each BSFS block is one BlobSeer
// page, so a cache-resident block costs no copy at all — the page
// references the cached one — and consuming it nudges the readahead
// window forward.
func (r *fileReader) Block(ctx context.Context, pos uint64) (cache.Page, uint64, error) {
	snap := r.snap.Load()
	block := pos / r.blockSize
	view, err := snap.PageView(ctx, block)
	if err != nil {
		return cache.Page{}, 0, mapVerErr(err)
	}
	r.ra.Observe(block, (snap.Size()+r.blockSize-1)/r.blockSize)
	return view, block * r.blockSize, nil
}

// Read implements io.Reader with whole-block reads and readahead.
func (r *fileReader) Read(p []byte) (int, error) { return r.cur.Read(r.ctx, r, p) }

// ReadAt implements io.ReaderAt through the same held block as Read.
func (r *fileReader) ReadAt(p []byte, off int64) (int, error) {
	return r.cur.ReadAt(r.ctx, r, p, off)
}

// Close implements io.Closer: it cancels outstanding readahead,
// releases the snapshot's GC pin, and releases the block view so a
// closed reader pins neither a page frame, provider bandwidth, nor
// obsolete versions. Further reads fail.
func (r *fileReader) Close() error {
	if !r.cur.Close() {
		return nil
	}
	r.ra.Close()
	r.release(r.snap.Load())
	return nil
}

// release closes a snapshot this reader is done with. A failed pin
// release is not the reader's failure: the lease expires on its own.
func (r *fileReader) release(s *blob.Snapshot) {
	if err := s.Close(); err != nil {
		slog.Debug("bsfs: unpin", "ver", s.Ver(), "err", err)
	}
}

// Size implements dfs.FileReader.
func (r *fileReader) Size() uint64 { return r.snap.Load().Size() }

// Version implements dfs.VersionedReader: the published snapshot this
// reader currently serves.
func (r *fileReader) Version() uint64 { return r.snap.Load().Ver() }

// Refresh moves the reader to the latest published version so it can
// follow a file that concurrent appenders are growing (the pipeline
// scenario of §5). The new snapshot is pinned before the old one is
// released, so the reader is never unprotected in between; when nothing
// published, it costs the one lookup. Cached pages of older versions
// stay valid — versions are immutable — so refreshing never invalidates
// the cache. A fixed-version reader (OpenVersion) serves one immutable
// snapshot: its Refresh is a no-op returning the snapshot size, never a
// move to a newer version — use WaitVersion + OpenVersion to tail
// instead.
func (r *fileReader) Refresh(ctx context.Context) (uint64, error) {
	old := r.snap.Load()
	if r.fixed {
		return old.Size(), nil
	}
	next, err := old.Refresh(ctx)
	if err != nil {
		return 0, mapVerErr(err)
	}
	if next != old {
		r.snap.Store(next)
		r.release(old)
	}
	// The current view may end short of the refreshed size mid-block;
	// drop it so the next read sees the grown block.
	r.cur.Drop()
	return next.Size(), nil
}
