package blob

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/cache"
	"blobseer/internal/dht"
	"blobseer/internal/metrics"
	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
)

// Client-side errors.
var (
	ErrEmptyWrite = errors.New("blob: empty write")
	ErrOutOfRange = errors.New("blob: read beyond version size")
	ErrPageWrite  = errors.New("blob: page write failed on all replicas")
	ErrPageRead   = errors.New("blob: page read failed on all replicas")
	ErrHistoryGap = errors.New("blob: incomplete write-record history")
	ErrShortPage  = errors.New("blob: provider returned short page")
)

// ClientPolicy is the part of a deployment's configuration its clients
// carry out. It is declared here once; ClusterConfig and ClientConfig
// embed it.
type ClientPolicy struct {
	// PageReplicas is how many providers each page is pushed to
	// (default 1).
	PageReplicas int
	// CacheBytes is the byte budget of the client's shared page cache:
	// 0 means cache.DefaultBudget, negative disables caching (cache.New
	// owns the rule). One cache serves every Blob handle and reader of
	// a client, so all map tasks on a tracker share it. Versioned pages
	// are immutable, so cached pages never go stale.
	CacheBytes int64
}

// ClientConfig configures a BlobSeer client.
type ClientConfig struct {
	Net  transport.Network
	Host string // simulated host the client runs on (NIC attribution)

	// VersionManagers lists every version-manager shard of the metadata
	// plane, in ring-slot order (must match the ShardAddrs the shards
	// themselves were built with); an unpartitioned plane lists one.
	VersionManagers []transport.Addr
	ProviderManager transport.Addr
	Metadata        []transport.Addr // metadata providers (DHT members)

	ClientPolicy
}

// The operation-latency histograms of the process-wide registry,
// resolved once (as rpc.M does for its MethodStats) so that recording
// an operation takes no registry lock. The flight sampler and the
// export plane find them by name.
var (
	opAppend   = metrics.Default.Op("blob.append")
	opWrite    = metrics.Default.Op("blob.write")
	opRead     = metrics.Default.Op("blob.read")
	opPageView = metrics.Default.Op("blob.pageview")
)

// maxParallelPages bounds concurrent page transfers per operation.
const maxParallelPages = 32

// Client talks to a BlobSeer deployment. It is safe for concurrent use.
type Client struct {
	cfg  ClientConfig
	pool *rpc.Pool
	vm   *VMRouter
	// nodes is the metadata DHT behind the client's cache of decoded
	// tree nodes: a read fetches the leaves it names through it, so a
	// leaf is fetched once, whichever versions share it.
	nodes *segtree.NodeCache

	// pages is the process-shared read cache (nil when disabled);
	// rstats is this client's view of the read-path counters, kept
	// whether or not the cache is on. replicaRR rotates the starting replica of page
	// fetches so the primary does not absorb all read traffic.
	pages     *cache.Cache
	rstats    *metrics.ReadStats
	replicaRR atomic.Uint32

	// inflight counts writes whose data path is still running — the
	// AppendAsync pipelining depth, exported as a gauge.
	inflight atomic.Int64

	// writers numbers this client's writes for AssignReq.Writer: a
	// random base plus a sequence number, so every retry of one assign
	// carries the same id and two clients' ids do not meet. The base
	// has its top bit set and the next one clear, so every id is
	// nonzero and encodes as a uvarint of the same width (10 bytes)
	// whatever the draw: a run's frame sizes, and so its modeled wire
	// time, do not depend on it.
	writers atomic.Uint64

	// lease holds the page placements the provider manager has granted
	// this client ahead of its writes; see allocPages.
	lease placementLease

	// pageWork feeds reusable page-transfer workers (started on first
	// use); see forEachPage. pageQuit stops them at Close.
	pageWork   chan pageTask
	pageQuit   chan struct{}
	startOnce  sync.Once
	closeOnce  sync.Once
	fanOuts    transport.FreeList[fanOut]    // see forEachPage
	commitCtxs transport.FreeList[commitCtx] // see detachCommit

	mu      sync.Mutex
	hist    map[uint64]*blobHistory
	verinfo map[VersionRef]VersionInfo // published (immutable) versions
}

// cacheCap bounds the client's version-info cache (the node cache has
// the same rule and a bound of its own): when the map reaches this many
// entries it is dropped and rebuilt, a crude but allocation-free bound.
const cacheCap = 1 << 16

// blobHistory caches a BLOB's write records: repeat writers receive only
// the history delta from the version manager, and a read names its
// leaves from them. An assigned write record never changes, so a slot
// is written once, and every slot below complete is filled:
// mergeHistory hands out prefixes of recs that are shared with
// concurrent writers, and index holds one, all read without the lock.
type blobHistory struct {
	recs     []segtree.WriteRecord // index ver-1; Ver==0 means unknown
	complete uint64                // all versions <= complete are cached
	// index arranges the records for reading by address. It is built on
	// the BLOB's first read (Blob.index), never by a write, so a client
	// that only writes pays nothing for it.
	index *segtree.Index
}

// NewClient returns a client running on cfg.Host.
func NewClient(cfg ClientConfig) *Client {
	if cfg.PageReplicas <= 0 {
		cfg.PageReplicas = 1
	}
	pool := rpc.NewPool(cfg.Net, transport.MakeAddr(cfg.Host, "client"))
	ring := dht.NewRing(cfg.Metadata, 64)
	meta := dht.NewClient(ring, pool, metaReplicas)
	rstats := &metrics.ReadStats{}
	c := &Client{
		cfg:      cfg,
		pool:     pool,
		vm:       NewVMRouter(pool, cfg.VersionManagers, cfg.Host),
		nodes:    segtree.NewNodeCache(NewNodeStore(meta)),
		pages:    cache.New(cfg.CacheBytes, rstats),
		rstats:   rstats,
		pageWork: make(chan pageTask),
		pageQuit: make(chan struct{}),
		hist:     make(map[uint64]*blobHistory),
		verinfo:  make(map[VersionRef]VersionInfo),
	}
	c.writers.Store(rand.Uint64()>>2 | 1<<63)
	return c
}

// writerID returns the id of this client's next write.
func (c *Client) writerID() uint64 { return c.writers.Add(1) }

// ReadStats exposes the client's own read-path counters (cache hits and
// misses, readahead, provider fetches, and failures per provider
// endpoint); the process registry's read_* counters sum every client's.
func (c *Client) ReadStats() *metrics.ReadStats { return c.rstats }

// PageCache exposes the shared page cache (nil when disabled), for
// tests and tools.
func (c *Client) PageCache() *cache.Cache { return c.pages }

// InFlight returns the number of writes whose data path has not yet
// finished — the effective AppendAsync pipelining depth.
func (c *Client) InFlight() int64 { return c.inflight.Load() }

// Close releases the client's connections and stops its page workers.
// It returns once a placement-lease refill in flight has ended, which
// closing the connections makes prompt. What the client counted stays
// in the process registry's read_* counters.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.pageQuit) })
	c.lease.mu.Lock()
	c.lease.closed = true
	c.lease.mu.Unlock()
	err := c.pool.Close()
	c.lease.refills.Wait()
	return err
}

// VMRouter exposes the client's blob→shard router, so co-operating
// services (GC collector, tools) share the same mapping and retry
// policy instead of growing their own.
func (c *Client) VMRouter() *VMRouter { return c.vm }

// NodeStore exposes the metadata store, behind the client's node cache:
// the garbage collector reads and deletes dead nodes through it, which
// is how the cache learns of the deletions.
func (c *Client) NodeStore() *segtree.NodeCache { return c.nodes }

// Create creates a BLOB with the given page size and opens it. The
// router spreads creations across shards round-robin; the allocating
// shard hands out an id the ring maps back to itself, so every later
// call routes by pure lookup.
func (c *Client) Create(ctx context.Context, pageSize uint64) (*Blob, error) {
	var resp CreateBlobResp
	err := c.vm.CallAddr(ctx, c.vm.CreateTarget(), VMCreateBlob, &CreateBlobReq{PageSize: pageSize}, &resp)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, id: resp.Blob, pageSize: pageSize}, nil
}

// Handle builds a BLOB handle from already-known metadata (id and page
// size). Callers such as BSFS learn both from their namespace manager.
func (c *Client) Handle(id, pageSize uint64) *Blob {
	return &Blob{c: c, id: id, pageSize: pageSize}
}

// Blob is a handle on one BLOB. Handles are safe for concurrent use.
type Blob struct {
	c        *Client
	id       uint64
	pageSize uint64
}

// ID returns the BLOB id.
func (b *Blob) ID() uint64 { return b.id }

// PageSize returns the BLOB's page size in bytes.
func (b *Blob) PageSize() uint64 { return b.pageSize }

// Latest returns the latest published version.
func (b *Blob) Latest(ctx context.Context) (VersionInfo, error) {
	var info VersionInfo
	err := b.c.vm.Call(ctx, b.id, VMLatest, &BlobRef{Blob: b.id}, &info)
	if err == nil {
		b.c.rememberVersion(b.id, info)
	}
	return info, err
}

// GetVersion returns metadata for one version, and takes in the write
// records up to it that the client lacks (see Blob.index).
func (b *Blob) GetVersion(ctx context.Context, ver uint64) (VersionInfo, error) {
	var resp VersionResp
	req := &GetVersionReq{Blob: b.id, Ver: ver, SinceVer: b.c.knownPrefix(b.id)}
	if err := b.c.vm.Call(ctx, b.id, VMGetVersion, req, &resp); err != nil {
		return VersionInfo{}, err
	}
	b.c.learn(b.id, &resp)
	return resp.Info, nil
}

// rememberVersion caches the info of a published version, which never
// changes again, for resolveVersion: every info the version manager
// hands out passes through here, so a version somebody on this client
// has stat'ed, opened or waited for costs its readers no lookup.
func (c *Client) rememberVersion(blob uint64, info VersionInfo) {
	if !info.Published || info.Ver == 0 {
		return
	}
	c.mu.Lock()
	if len(c.verinfo) >= cacheCap {
		c.verinfo = make(map[VersionRef]VersionInfo)
	}
	c.verinfo[VersionRef{Blob: blob, Ver: info.Ver}] = info
	c.mu.Unlock()
}

// History enumerates the BLOB's published versions still inside the
// retention window, oldest first (ver, size, pages; position doubles
// as publish order, since versions publish in assignment order). limit
// bounds the response to the newest limit versions; 0 returns the
// whole window.
func (b *Blob) History(ctx context.Context, limit uint64) ([]VersionInfo, error) {
	var resp HistoryResp
	err := b.c.vm.Call(ctx, b.id, VMHistory,
		&HistoryReq{Blob: b.id, Limit: limit}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// WaitPublished blocks until ver is published (or ctx expires). ver
// may lie beyond the currently assigned range: the wait then covers
// future assignment too, which is what makes it the tailing primitive
// behind WaitVersion — wait for latest+1 and a concurrent appender's
// next publish wakes it.
func (b *Blob) WaitPublished(ctx context.Context, ver uint64) (VersionInfo, error) {
	for {
		var info VersionInfo
		err := b.c.vm.Call(ctx, b.id, VMWaitPublished,
			&VersionRef{Blob: b.id, Ver: ver}, &info)
		switch {
		case err == nil:
			b.c.rememberVersion(b.id, info)
			return info, nil
		case errors.Is(err, ErrWaitTimeout):
			if ctx.Err() != nil {
				return VersionInfo{}, ctx.Err()
			}
			continue
		default:
			return VersionInfo{}, err
		}
	}
}

//
// Lifecycle: retention, truncation, deletion (reader pins: snapshot.go).
//

// SetRetention sets this BLOB's retention override: keep only the
// latest `keep` published versions; older ones become collectable by
// the next GC pass. keep == 0 keeps every version.
func (b *Blob) SetRetention(ctx context.Context, keep uint64) error {
	return b.c.vm.Call(ctx, b.id, VMSetRetention,
		&SetRetentionReq{Blob: b.id, Retain: keep}, nil)
}

// TruncateBefore marks every version below ver collectable. The latest
// published version always survives; use Delete to retire the BLOB.
//
//lint:unusedexport public retention API named in README beside SetRetention
func (b *Blob) TruncateBefore(ctx context.Context, ver uint64) error {
	return b.c.vm.Call(ctx, b.id, VMTruncateBefore,
		&VersionRef{Blob: b.id, Ver: ver}, nil)
}

// Delete retires the whole BLOB: every version becomes collectable
// (pinned snapshots last until their pins release) and subsequent reads
// fail with ErrVersionCollected. The handle's local caches are purged.
func (b *Blob) Delete(ctx context.Context) error {
	return b.c.DeleteBlob(ctx, b.id)
}

// DeleteBlob retires BLOB id (see Blob.Delete).
func (c *Client) DeleteBlob(ctx context.Context, id uint64) error {
	err := c.vm.Call(ctx, id, VMDeleteBlob, &BlobRef{Blob: id}, nil)
	if err == nil {
		c.PurgeBlob(id)
	}
	return err
}

// ReclaimScan asks every version-manager shard for its newly dead
// versions (marking them collected in the same step) and merges the
// answers. The garbage collector is the only intended caller. A shard
// that fails mid-scan is skipped — its frontier did not move for the
// blobs it never reached, so the next pass retries them; the scan
// errors only when every shard failed.
func (c *Client) ReclaimScan(ctx context.Context) (*ReclaimScanResp, error) {
	merged := &ReclaimScanResp{}
	var lastErr error
	okShards := 0
	for _, addr := range c.vm.Shards() {
		var resp ReclaimScanResp
		if err := c.vm.CallAddr(ctx, addr, VMReclaimScan, nil, &resp); err != nil {
			lastErr = err
			continue
		}
		okShards++
		merged.PinsBlocked += resp.PinsBlocked
		merged.Blobs = append(merged.Blobs, resp.Blobs...)
	}
	if okShards == 0 && lastErr != nil {
		return nil, lastErr
	}
	return merged, nil
}

// DeletePages sends one provider a batch of reclaimable page keys.
func (c *Client) DeletePages(ctx context.Context, provider string, keys []pagestore.Key) (DeletePagesResp, error) {
	var resp DeletePagesResp
	err := c.pool.Call(ctx, transport.Addr(provider), ProvDeletePages, &DeletePagesReq{Keys: keys}, &resp)
	return resp, err
}

// PurgeVersion drops every locally cached artifact of one version —
// its VersionInfo, the tree nodes it wrote, and cached pages.
// Collection breaks the "published versions are immutable forever"
// assumption those caches rely on, so this is the cache layer's
// invalidation path. The version's write record stays: records never
// change.
func (c *Client) PurgeVersion(blob, ver uint64) {
	c.mu.Lock()
	delete(c.verinfo, VersionRef{Blob: blob, Ver: ver})
	c.mu.Unlock()
	c.nodes.ForgetVersion(blob, ver)
	if c.pages != nil {
		c.pages.PurgeVersion(blob, ver)
	}
}

// PurgeBlob drops every locally cached artifact of whole BLOBs,
// including the write-record history and its index, in one pass over
// each cache however many BLOBs are named (a pass visits everything
// cached).
func (c *Client) PurgeBlob(blobs ...uint64) {
	c.mu.Lock()
	for _, blob := range blobs {
		delete(c.hist, blob)
	}
	for k := range c.verinfo {
		if slices.Contains(blobs, k.Blob) {
			delete(c.verinfo, k)
		}
	}
	c.mu.Unlock()
	c.nodes.ForgetBlob(blobs...)
	if c.pages != nil {
		c.pages.PurgeBlob(blobs...)
	}
}

// collectedOr maps a read failure whose root cause is garbage
// collection — pages or tree nodes that vanished mid-read — to a clean
// ErrVersionCollected, purging the local caches so later reads fail
// fast. Failures with live versions pass through unchanged.
func (b *Blob) collectedOr(ctx context.Context, ver uint64, err error) error {
	if err == nil || ver == 0 ||
		!(errors.Is(err, ErrPageRead) || errors.Is(err, segtree.ErrNodeMissing)) {
		return err
	}
	var resp VersionResp
	perr := b.c.vm.Call(ctx, b.id, VMGetVersion, &GetVersionReq{Blob: b.id, Ver: ver, SinceVer: ver}, &resp)
	if errors.Is(perr, ErrVersionCollected) {
		b.c.PurgeVersion(b.id, ver)
		return fmt.Errorf("%w: blob %d version %d", ErrVersionCollected, b.id, ver)
	}
	return err
}

// Abort seals a version this writer no longer intends to complete.
func (b *Blob) Abort(ctx context.Context, ver uint64) error {
	return b.c.vm.Call(ctx, b.id, VMSeal, &VersionRef{Blob: b.id, Ver: ver}, nil)
}

// abortDetached seals ver in the background, on a context independent
// of the write's (possibly already cancelled) context: a failed write
// must still reach the version manager, or its pending version holds
// up the publication chain until the version manager's lease seals it.
// Fire-and-forget so a caller whose context just died is not held up
// by the seal round trip.
func (b *Blob) abortDetached(ver uint64) {
	go func() {
		//lint:detached the seal must outlive the write's dead ctx or the pending version wedges publication; detachedTimeout bounds it
		ctx, cancel := context.WithTimeout(context.Background(), detachedTimeout)
		defer cancel()
		if err := b.Abort(ctx, ver); err != nil {
			// Every later version waits one lease for the sweep to seal
			// this one — worth an operator's attention.
			slog.Warn("blob: detached seal failed", "blob", b.id, "ver", ver, "err", err)
		}
	}()
}

// WriteResult reports where an update landed.
type WriteResult struct {
	// Ver is the version this update generates (§3.1.2: "the user
	// supplies the data to be stored and receives the number of the
	// version this update generates"). It may not be published yet
	// when the write returns; use WaitPublished to block until it is
	// readable.
	Ver uint64
	// Start is the byte offset the system chose for the data (for
	// appends, like GFS record append, the offset is picked by the
	// system and returned to the client).
	Start uint64
	// SizeAfter is the BLOB size once this version publishes.
	SizeAfter uint64
}

// PendingWrite is an in-flight write whose version has already been
// assigned: the serialized step is done, and the data path (boundary
// merges, page writes, metadata commit, completion) runs in the
// background.
type PendingWrite struct {
	res  WriteResult
	err  error
	done chan struct{}
}

// Result returns the placement the version manager assigned. It is
// valid immediately, before the data path finishes; the version is not
// readable until it publishes.
func (p *PendingWrite) Result() WriteResult { return p.res }

// Done returns a channel closed when the data path finishes.
func (p *PendingWrite) Done() <-chan struct{} { return p.done }

// Wait blocks until the data path finishes and returns the outcome.
func (p *PendingWrite) Wait(ctx context.Context) (WriteResult, error) {
	select {
	case <-p.done:
		if p.err != nil {
			return WriteResult{}, p.err
		}
		return p.res, nil
	case <-ctx.Done():
		return WriteResult{}, ctx.Err()
	}
}

// payload is the bytes of one write as a list of buffers, every one
// but the last a whole number of pages long: no page straddles two
// buffers, so the pipeline sends each page straight out of the buffer
// its writer filled. Append and WriteAt wrap their one buffer; the bsfs
// writer hands AppendAsync the block buffers of a run.
type payload [][]byte

func (p payload) len() uint64 {
	var n uint64
	for _, buf := range p {
		n += uint64(len(buf))
	}
	return n
}

// page returns page i of the payload, short if the payload ends inside
// it. With head set the payload begins that far into its first page
// slot, so page 0 is that much shorter and the rest shift; such a
// payload is one buffer.
func (p payload) page(i, pageSize, head uint64) []byte {
	lo, hi := i*pageSize, (i+1)*pageSize-head
	if i > 0 {
		lo -= head
	}
	for _, buf := range p {
		n := uint64(len(buf))
		if lo < n {
			return buf[lo:min(hi, n)]
		}
		lo, hi = lo-n, hi-n
	}
	return nil
}

// copyTo copies the payload into dst, which must hold it.
func (p payload) copyTo(dst []byte) {
	for _, buf := range p {
		dst = dst[copy(dst, buf):]
	}
}

// Append appends data to the BLOB.
func (b *Blob) Append(ctx context.Context, data []byte) (WriteResult, error) {
	return b.write(ctx, KindAppend, 0, payload{data})
}

// AppendAsync starts one append of the concatenation of pages — every
// buffer but the last a whole number of pages long; none is copied —
// and returns as soon as its version is assigned, leaving the data
// path running in the background. This is the write pipelining that
// §3.1.2's decoupling makes safe: only version assignment is ordered,
// so one writer can keep several appends in flight while publication
// still follows assignment order. However many pages it carries, an
// append is one version and one metadata commit. The caller must not
// modify the buffers until the pending write finishes.
func (b *Blob) AppendAsync(ctx context.Context, pages [][]byte) (*PendingWrite, error) {
	data := payload(pages)
	n := data.len()
	for i, buf := range pages[:max(len(pages)-1, 0)] {
		if uint64(len(buf))%b.pageSize != 0 {
			return nil, fmt.Errorf("blob: append buffer %d of %d is %d bytes, not whole %d-byte pages", i, len(pages), len(buf), b.pageSize)
		}
	}
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "blob.append")
	// The prologue runs here, in the caller's goroutine; the expensive
	// page transfers, metadata commit, and completion run in the
	// background.
	a, history, alloc, err := b.assign(ctx, KindAppend, 0, n)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	if sp != nil { // guard: varargs boxing allocates even for a nil span
		sp.Annotate("ver=%d start=%d len=%d", a.Ver, a.Start, n)
	}
	p := &PendingWrite{
		res:  WriteResult{Ver: a.Ver, Start: a.Start, SizeAfter: a.SizeAfter},
		done: make(chan struct{}),
	}
	b.c.inflight.Add(1)
	go func() {
		defer close(p.done)
		p.err = b.finishWrite(ctx, a, history, data, alloc)
		b.c.inflight.Add(-1)
		sp.End(p.err)
		opAppend.RecordDuration(time.Since(start))
	}()
	return p, nil
}

// WriteAt writes data at a byte offset (beyond-EOF offsets create
// holes that read as zeros) and returns the new version.
func (b *Blob) WriteAt(ctx context.Context, data []byte, off uint64) (WriteResult, error) {
	return b.write(ctx, KindWrite, off, payload{data})
}

// write runs the decoupled write pipeline of §3.1.2 synchronously:
// what AppendAsync runs, without the goroutine.
func (b *Blob) write(ctx context.Context, kind uint64, off uint64, data payload) (WriteResult, error) {
	start := time.Now()
	opName, op := "blob.write", opWrite
	if kind == KindAppend {
		opName, op = "blob.append", opAppend
	}
	ctx, sp := obs.StartSpan(ctx, opName)
	b.c.inflight.Add(1)
	a, history, alloc, err := b.assign(ctx, kind, off, data.len())
	if err == nil {
		err = b.finishWrite(ctx, a, history, data, alloc)
	}
	b.c.inflight.Add(-1)
	sp.End(err)
	op.RecordDuration(time.Since(start))
	if err != nil {
		return WriteResult{}, err
	}
	return WriteResult{Ver: a.Ver, Start: a.Start, SizeAfter: a.SizeAfter}, nil
}

// assign runs the prologue every write shares, for a write of n bytes:
// version assignment — the only serialized step, and the prologue's only
// round trip — folding the history delta into the cache, then the
// providers of the assigned pages, taken from the client's placement
// lease (steps 1 and 3). Taking them here, before anything overlaps,
// keeps a writer's consecutive writes on consecutive rows of the lease
// (and so placement strategies like round-robin keep their stride). What
// assign returns is what finishWrite takes.
func (b *Blob) assign(ctx context.Context, kind, off, n uint64) (AssignResp, []segtree.WriteRecord, []string, error) {
	var a AssignResp
	if n == 0 {
		return a, nil, nil, ErrEmptyWrite
	}
	c := b.c
	req := &AssignReq{Blob: b.id, Kind: kind, Off: off, Len: n, SinceVer: c.knownPrefix(b.id), Writer: c.writerID()}
	if err := c.vm.Call(ctx, b.id, VMAssign, req, &a); err != nil {
		return a, nil, nil, fmt.Errorf("blob: assign: %w", err)
	}
	history, err := c.mergeHistory(b.id, a.History, a.Record)
	var alloc []string
	if err == nil {
		alloc, err = c.allocPages(ctx, a.Record.N)
	}
	if err != nil {
		// The version is already assigned; seal it so the publication
		// chain is not wedged behind a write that will never complete.
		b.abortDetached(a.Ver)
		return a, nil, nil, err
	}
	return a, history, alloc, nil
}

// leasePages is how many page placements a client asks the provider
// manager for at a time, ahead of the writes that will use them: eight
// round-robin cycles of eight providers. A refill starts when fewer than
// half are left, so its round trip has 32 pages of writing to hide
// behind.
const leasePages = 64

// placementLease is a client's standing grant of page placements. Where
// a page goes depends on neither its content nor, under any strategy the
// provider manager has, its BLOB, so the client asks before it writes
// and a write finds its providers already here. A row is handed to one
// page and never again; the rows a write took stay readable through its
// window while later grants are appended behind them.
type placementLease struct {
	mu        sync.Mutex
	replicas  int            // providers per row, as the manager granted them
	rows      []string       // row-major; granted and not yet handed to a write
	refilling bool           // a background refill is in flight
	closed    bool           // Close ran: start no refill
	refills   sync.WaitGroup // the refill in flight, for Close to wait on
}

// grant adds a response's rows to the lease. Rows of another width (the
// manager clamps replicas to the providers it knows, and providers
// register while clients run) replace the ones held instead of joining
// them.
func (l *placementLease) grant(resp *AllocResp) {
	if int(resp.Replicas) != l.replicas {
		l.replicas, l.rows = int(resp.Replicas), nil
	}
	l.rows = append(l.rows, resp.Providers...)
}

// allocPages runs step 3 of the write pipeline, the providers of an
// assigned write's n pages, and in the steady state makes no call: it
// takes the next n rows of the lease, as a read-only window of the
// lease's own slice, and when that leaves fewer than half a lease it
// starts one refill in the background. Only a cold lease, or one that
// writes drained faster than the refill answered, calls the provider
// manager on the write's path, for the write's pages and a lease in one
// call.
func (c *Client) allocPages(ctx context.Context, n uint64) ([]string, error) {
	if n == 0 {
		return nil, errors.New("blob: alloc of zero pages")
	}
	l := &c.lease
	l.mu.Lock()
	for l.replicas == 0 || uint64(len(l.rows)) < n*uint64(l.replicas) {
		l.mu.Unlock()
		resp, err := c.pmAlloc(ctx, n+leasePages)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.grant(resp)
	}
	k := int(n) * l.replicas
	rows := l.rows[:k:k]
	l.rows = l.rows[k:]
	refill := len(l.rows) < leasePages/2*l.replicas && !l.refilling && !l.closed
	if refill {
		l.refilling = true
		l.refills.Add(1)
	}
	l.mu.Unlock()
	if refill {
		go c.refillLease()
	}
	return rows, nil
}

// refillLease asks for the next lease off every write's path. A failed
// refill is retried by the next write that finds the lease low, and the
// write that finds it empty reports the error.
func (c *Client) refillLease() {
	l := &c.lease
	defer l.refills.Done()
	//lint:detached the refill serves the writes after the one that started it, whose ctx may be dead by then; the 30s deadline bounds it and Close waits for it
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := c.pmAlloc(ctx, leasePages)
	l.mu.Lock()
	if err == nil {
		l.grant(resp)
	}
	l.refilling = false
	closed := l.closed
	l.mu.Unlock()
	if err != nil && !closed {
		slog.Warn("blob: placement lease refill failed, the next write retries it", "err", err)
	}
}

// pmAlloc asks the provider manager where n pages go: the one call a
// client makes to it, from the lease's two refill sites.
func (c *Client) pmAlloc(ctx context.Context, n uint64) (*AllocResp, error) {
	resp := new(AllocResp)
	req := &AllocReq{NPages: n, Replicas: uint64(c.cfg.PageReplicas)}
	if err := c.pool.Call(ctx, c.cfg.ProviderManager, PMAlloc, req, resp); err != nil {
		return nil, fmt.Errorf("blob: alloc: %w", err)
	}
	if resp.Replicas == 0 || uint64(len(resp.Providers)) != n*resp.Replicas {
		return nil, fmt.Errorf("blob: alloc returned %d providers for %d pages", len(resp.Providers), n)
	}
	return resp, nil
}

// finishWrite runs the data path of the write pipeline — boundary
// merges, then the page transfers beside the metadata commit, then
// completion (steps 2, 4-6): two round trips after the assignment —
// for a write whose providers alloc names, row-major, its length a
// whole number of rows. Whichever step fails, the version is aborted so
// the publication chain moves on.
func (b *Blob) finishWrite(ctx context.Context, a AssignResp, history []segtree.WriteRecord, data payload, alloc []string) error {
	c := b.c
	ps := b.pageSize
	rec := a.Record
	pageBase := rec.Off*ps + rec.Head // the first byte this version stores
	writeEnd := a.Start + data.len()
	recEnd := (rec.Off + rec.N) * ps
	headHi := min(a.Start, a.PrevSize)
	tailHi := min(recEnd, a.PrevSize)
	contentEnd := max(writeEnd, tailHi)

	// 2. Boundary merges. A write that lands inside existing bytes — an
	// overwrite that starts or ends mid-page, or the append told to
	// compact a slot already stored as segtree.MaxSlotFragments pages —
	// folds in the neighbouring bytes of the previous version, so that
	// each page it stores is a prefix of its slot, and must wait for that
	// version to publish. Every other write skips this and stays fully
	// parallel: whole pages have no neighbours, and a write that begins
	// mid-slot past everything the slot holds stores a fragment
	// (rec.Head), whose pageBase is where the previous version ends.
	var head, tail []byte
	var err error
	if (headHi > pageBase || tailHi > writeEnd) && a.Ver >= 2 {
		mctx, msp := obs.StartSpan(ctx, "write.merge")
		if _, werr := b.WaitPublished(mctx, a.Ver-1); werr != nil {
			err = fmt.Errorf("blob: boundary merge wait: %w", werr)
		}
		if err == nil && headHi > pageBase {
			if head, err = b.ReadAt(mctx, a.Ver-1, pageBase, headHi-pageBase); err != nil {
				err = fmt.Errorf("blob: head merge: %w", err)
			}
		}
		if err == nil && tailHi > writeEnd {
			if tail, err = b.ReadAt(mctx, a.Ver-1, writeEnd, tailHi-writeEnd); err != nil {
				err = fmt.Errorf("blob: tail merge: %w", err)
			}
		}
		msp.End(err)
	}
	if err != nil {
		b.abortDetached(a.Ver)
		return err
	}

	// A write that starts at pageBase and has nothing to merge is sent as
	// it is. One that does not, or that has neighbours to fold in, is
	// assembled in a copy (a gap up to a.Start stays zero), and so are the
	// buffers of a run behind a fragment, whose pages would straddle them.
	content := data
	if a.Start != pageBase || contentEnd != writeEnd || (rec.Head != 0 && len(data) > 1) {
		whole := make([]byte, contentEnd-pageBase)
		data.copyTo(whole[a.Start-pageBase:])
		copy(whole, head) // head covers [pageBase, headHi)
		copy(whole[writeEnd-pageBase:], tail)
		content = payload{whole}
	}

	// 4-5. Parallel page writes and the metadata commit, one fan-out. The
	// commit is one batched DHT write that reads nothing, a page ack
	// included: its leaves name the providers the lease gave each page.
	// Nobody reads a pending version's nodes, so they may land before its
	// pages; Complete, below, follows both. Task 0 is the commit, so its
	// small frames leave ahead of the pages; task i+1 puts page i.
	r := uint64(len(alloc)) / rec.N // replicas per page
	pctx, psp := obs.StartSpan(ctx, "write.pages")
	if psp != nil {
		psp.Annotate("pages=%d replicas=%d", rec.N, r)
	}
	// refs[i] is page i's leaf as first committed; acked[i] is set only
	// if page i lost a replica, to the leaf naming the ones that hold it.
	slab := make([]segtree.PageRef, 2*rec.N)
	refs, acked := slab[:rec.N:rec.N], slab[rec.N:]
	for i := range refs {
		key := pagestore.Key{Blob: b.id, Version: a.Ver, Index: rec.Off + uint64(i)}
		refs[i] = segtree.PageRef{Page: key, Providers: alloc[uint64(i)*r : uint64(i+1)*r]}
	}
	//lint:detached a commit abandoned on cancel is still applied, maybe after the seal, so it is always waited for; detachedTimeout bounds it
	dctx := c.detachCommit(ctx)
	err = c.forEachPage(rec.N+1, func(t uint64) error {
		if t == 0 {
			return b.commit(dctx, rec, history, refs)
		}
		i, ref := t-1, &refs[t-1] // read-only: the commit encodes it meanwhile
		var ok []string           // nil until a replica fails
		var lastErr error
		for j, addr := range ref.Providers {
			err := c.pool.Call(pctx, transport.Addr(addr), ProvPutPage, &PutPageReq{Key: ref.Page, Data: content.page(i, ps, rec.Head)}, nil)
			switch {
			case err != nil:
				if lastErr == nil {
					ok = append(make([]string, 0, r), ref.Providers[:j]...)
				}
				lastErr = err
			case lastErr != nil:
				ok = append(ok, addr)
			}
		}
		if lastErr == nil {
			return nil
		}
		if len(ok) == 0 {
			return fmt.Errorf("%w: page %d: %v", ErrPageWrite, ref.Page.Index, lastErr)
		}
		acked[i] = segtree.PageRef{Page: ref.Page, Providers: ok}
		return nil
	})
	psp.End(err)
	if err == nil {
		// If a replica failed, commit again naming only the replicas that
		// acked, so no leaf a reader sees names a provider without its page.
		recommit := false
		for i, ref := range acked {
			if ref.Providers != nil {
				refs[i], recommit = ref, true
			}
		}
		if recommit {
			err = b.commit(dctx, rec, history, refs)
		}
	}
	c.releaseCommit(dctx)
	if err != nil {
		// Give up on this version so the publication chain moves on. Every
		// commit has answered, so the seal is the last write to its nodes.
		b.abortDetached(a.Ver)
		return err
	}

	// 6. Notify the version manager; publication follows version order.
	// The router retries through failover windows; Complete is
	// idempotent server-side, so a retried call whose first response was
	// lost cannot fail a durably completed write.
	if err := c.vm.Call(ctx, b.id, VMComplete, &VersionRef{Blob: b.id, Ver: a.Ver}, nil); err != nil {
		// An unacknowledged completion leaves the version pending with
		// its pages and metadata already committed; seal it so the
		// chain moves on, mirroring the page-write and metadata-commit
		// failure paths.
		b.abortDetached(a.Ver)
		return fmt.Errorf("blob: complete: %w", err)
	}
	return nil
}

// commit stores the segment-tree nodes of the write rec, whose pages
// refs describe: step 5 of the write pipeline.
func (b *Blob) commit(ctx context.Context, rec segtree.WriteRecord, history []segtree.WriteRecord, refs []segtree.PageRef) error {
	ctx, sp := obs.StartSpan(ctx, "write.commit")
	err := segtree.Commit(ctx, b.c.nodes, b.id, rec, history, refs)
	sp.End(err)
	if err != nil {
		return fmt.Errorf("blob: metadata commit: %w", err)
	}
	return nil
}

// detachedTimeout bounds the work a write does on a context its
// caller's cancellation does not end: its metadata commit and its seal.
const detachedTimeout = 30 * time.Second

// commitCtx is the context a write's metadata commit runs on: the
// write's values, so the commit stays in the write's trace, but not its
// cancellation, and a deadline detachedTimeout away. rpc sends a request
// before it waits, so a commit whose caller left on cancel is still
// applied, possibly after the seal that aborts its version, and its
// leaves would name pages nobody stored; a commit is always waited for.
// A client reuses them, timer and channel too: a write allocates none.
type commitCtx struct {
	context.Context
	deadline time.Time
	timer    *time.Timer
	done     chan struct{} // closed when the timer fires
}

// detachCommit returns a commitCtx over ctx; releaseCommit hands it back.
func (c *Client) detachCommit(ctx context.Context) *commitCtx {
	d := c.commitCtxs.Take(func() *commitCtx {
		d := &commitCtx{done: make(chan struct{})}
		d.timer = time.AfterFunc(detachedTimeout, func() { close(d.done) })
		return d
	})
	d.timer.Reset(detachedTimeout)
	d.Context, d.deadline = ctx, time.Now().Add(detachedTimeout)
	return d
}

// releaseCommit ends d's use. One whose timer fired is closed for good,
// and is dropped.
func (c *Client) releaseCommit(d *commitCtx) {
	d.Context = nil
	if d.timer.Stop() {
		c.commitCtxs.Give(d)
	}
}

func (d *commitCtx) Deadline() (time.Time, bool) { return d.deadline, true }
func (d *commitCtx) Done() <-chan struct{}       { return d.done }

func (d *commitCtx) Err() error {
	select {
	case <-d.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// pageTask is one page-transfer unit handed to a reusable worker.
type pageTask struct {
	i   uint64
	run func(i uint64)
}

// pageWorkers is how many long-lived transfer goroutines a client
// keeps warm. Like the rpc server's dispatch pool, reuse keeps worker
// stacks grown across operations instead of re-paying stack-growth
// copies on every spawned page goroutine; overflow falls back to
// spawning, so the pool never reduces available parallelism.
const pageWorkers = 16

func (c *Client) pageWorker() {
	for {
		select {
		case t := <-c.pageWork:
			t.run(t.i)
		case <-c.pageQuit:
			return
		}
	}
}

// fanOut is one forEachPage call's scaffolding: the concurrency bound,
// the tasks' WaitGroup, their first error and the func a worker runs,
// bound to it once. The client reuses it, so a fan-out allocates nothing
// of its own.
type fanOut struct {
	fn       func(i uint64) error
	sem      chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
	run      func(i uint64)
}

func newFanOut() *fanOut {
	f := &fanOut{sem: make(chan struct{}, maxParallelPages)}
	f.run = func(i uint64) {
		defer f.wg.Done()
		defer func() { <-f.sem }()
		if err := f.fn(i); err != nil {
			f.mu.Lock()
			if f.firstErr == nil {
				f.firstErr = err
			}
			f.mu.Unlock()
		}
	}
	return f
}

// forEachPage runs fn for task indices [0, n) on up to maxParallelPages
// goroutines — the transfer scaffolding shared by the write and read
// paths — and returns the first error once every task has returned.
// The per-call concurrency bound is the sem, exactly as if every task
// spawned its own goroutine; the worker pool only recycles stacks. The
// caller runs the last task itself, which it would only wait for
// otherwise, so a single page never leaves it.
func (c *Client) forEachPage(n uint64, fn func(i uint64) error) error {
	if n == 1 {
		return fn(0)
	}
	c.startOnce.Do(func() {
		for i := 0; i < pageWorkers; i++ {
			go c.pageWorker()
		}
	})
	f := c.fanOuts.Take(newFanOut)
	f.fn = fn
	for i := uint64(0); i < n; i++ {
		f.wg.Add(1)
		f.sem <- struct{}{}
		if i == n-1 {
			f.run(i)
			break
		}
		select {
		case c.pageWork <- pageTask{i: i, run: f.run}:
		default:
			go f.run(i)
		}
	}
	f.wg.Wait()
	err := f.firstErr
	f.fn, f.firstErr = nil, nil
	c.fanOuts.Give(f)
	return err
}

// ReadAt reads n bytes at byte offset off from version ver (0 means
// the latest published version). Only published versions are readable;
// holes read as zeros.
func (b *Blob) ReadAt(ctx context.Context, ver uint64, off, n uint64) ([]byte, error) {
	if n == 0 {
		// Keep the historical contract: a zero-length read still
		// resolves the version (surfacing not-found / not-published).
		if _, err := b.resolveVersion(ctx, ver); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]byte, n)
	if _, err := b.ReadAtInto(ctx, ver, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtInto reads len(p) bytes at byte offset off from version ver
// (0 = latest published) into p, returning the bytes copied. It is the
// allocation-free variant of ReadAt: cached pages are copied straight
// into p with no intermediate buffer, so a reader streaming through a
// warm cache moves each byte exactly once.
func (b *Blob) ReadAtInto(ctx context.Context, ver uint64, off uint64, p []byte) (int, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "blob.read")
	n, err := b.readAtInto(ctx, ver, off, p)
	sp.End(err)
	opRead.RecordDuration(time.Since(start))
	return n, err
}

func (b *Blob) readAtInto(ctx context.Context, ver uint64, off uint64, p []byte) (int, error) {
	info, err := b.resolveVersion(ctx, ver)
	if err != nil {
		return 0, err
	}
	n := uint64(len(p))
	if n == 0 {
		return 0, nil
	}
	if off+n > info.Size {
		return 0, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+n, info.Size)
	}
	ps := b.pageSize
	firstPage := off / ps
	lastPage := (off + n - 1) / ps
	slots, err := b.resolveSlots(ctx, info, firstPage, lastPage-firstPage+1)
	if err == nil {
		err = b.readSlots(ctx, slots, off, p, true)
	}
	if err != nil {
		return 0, b.collectedOr(ctx, info.Ver, err)
	}
	return int(n), nil
}

// ReadWritten reads len(p) bytes into p from byte offset off that
// version ver itself wrote: it reads ver's own leaves by address
// (segtree.Written), one batched fetch of those the node cache lacks,
// instead of resolving snapshot ver, then the pages. The caller vouches
// that ver completed — its leaves are final then, and the node cache
// keeps them — and wrote all of [off, off+len(p)); a read beginning
// before the first byte ver stored is refused, and one running past its
// last fails on a short page. It asks the version manager nothing
// unless a page or leaf turns out to be gone, which fails as
// ErrVersionCollected when collection took it. Like io.ReaderAt it
// allocates no buffer: p is the caller's.
func (b *Blob) ReadWritten(ctx context.Context, ver, off uint64, p []byte) error {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "blob.read")
	err := b.readWritten(ctx, ver, off, p)
	sp.End(err)
	opRead.RecordDuration(time.Since(start))
	return err
}

func (b *Blob) readWritten(ctx context.Context, ver, off uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	ps := b.pageSize
	first := off / ps
	slots, err := segtree.Written(ctx, b.c.nodes, b.id, ver, first, (off+uint64(len(p))-1)/ps-first+1)
	if err != nil {
		return b.collectedOr(ctx, ver, err)
	}
	if first*ps+uint64(slots[0].Ref.Lo) > off {
		return fmt.Errorf("blob: version %d of blob %d stored page %d from byte %d on, read starts at %d", ver, b.id, first, slots[0].Ref.Lo, off-first*ps)
	}
	if err := b.readSlots(ctx, slots, off, p, false); err != nil {
		return b.collectedOr(ctx, ver, err)
	}
	return nil
}

// extent returns the byte range of the BLOB that stored page i of slots
// holds: from its Lo up to where the next page of the same slot begins,
// or to the slot's end. The pages of a slot were stored end to end, so
// consecutive extents tile the resolved range.
func (b *Blob) extent(slots []segtree.Slot, i uint64) (lo, hi uint64) {
	s := &slots[i]
	lo, hi = s.Index*b.pageSize+uint64(s.Ref.Lo), (s.Index+1)*b.pageSize
	if i+1 < uint64(len(slots)) && slots[i+1].Index == s.Index {
		hi = s.Index*b.pageSize + uint64(slots[i+1].Ref.Lo)
	}
	return lo, hi
}

// readSlots copies bytes [off, off+len(p)) of the BLOB into p from the
// resolved pages that hold them, each fetched in parallel and copied
// straight to its place; holes read as zeros. With cached set, and a
// page cache to use, the pages are read through it; otherwise (the
// shuffle's ReadWritten, and every read with the cache off) each page
// is fetched into a pooled frame whose window is copied out before the
// frame goes back to the pool, and nothing of it stays behind.
func (b *Blob) readSlots(ctx context.Context, slots []segtree.Slot, off uint64, p []byte, cached bool) error {
	end := off + uint64(len(p))
	cached = cached && b.c.pages != nil
	return b.c.forEachPage(uint64(len(slots)), func(i uint64) error {
		base, limit := b.extent(slots, i)
		lo, hi := max(off, base), min(end, limit)
		if lo >= hi {
			return nil // a fragment the read does not reach
		}
		dst := p[lo-off : hi-off]
		if slots[i].Ref.Hole {
			clear(dst)
			return nil
		}
		if !cached {
			var resp GetPageResp
			err := b.c.fetchPageDirect(ctx, slots[i].Ref, hi-base, &resp)
			if err == nil {
				copy(dst, resp.Data[lo-base:])
			}
			transport.ReleaseFrame(resp.Data) // a short page, if any
			return err
		}
		// fetchPage validates length: success means >= hi-base bytes.
		page, err := b.c.fetchPage(ctx, slots[i].Ref, hi-base)
		if err != nil {
			return err
		}
		copy(dst, page.Data[lo-base:hi-base])
		page.Release()
		return nil
	})
}

// PageView returns a read-only view of one whole page of version ver
// (0 = latest published), trimmed to the version's size: the last page
// may be short, and pages past the end return ErrOutOfRange. When the
// page sits in the shared cache the view is a counted reference to the
// cached copy, so streaming readers move each byte exactly once (cache
// → caller); with the cache off it owns the pooled frame the page was
// copied into; holes come back as freshly zeroed slices, and a slot
// stored as fragments is assembled into a buffer of the view's own.
// Callers MUST NOT modify view.Data, and MUST Release the view
// once they are done with it, exactly once: its buffer goes back to the
// frame pool when the page has left the cache and the last view of it
// is released, and Data is not valid after that.
func (b *Blob) PageView(ctx context.Context, ver, page uint64) (cache.Page, error) {
	// The BSFS read path is built on PageView, so this histogram (not
	// blob.read) is where file-system read latency lands.
	start := time.Now()
	view, err := b.pageView(ctx, ver, page)
	opPageView.RecordDuration(time.Since(start))
	return view, err
}

func (b *Blob) pageView(ctx context.Context, ver, page uint64) (cache.Page, error) {
	info, err := b.resolveVersion(ctx, ver)
	if err != nil {
		return cache.Page{}, err
	}
	ps := b.pageSize
	if page*ps >= info.Size {
		return cache.Page{}, fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, info.Pages)
	}
	want := min(ps, info.Size-page*ps)
	slots, err := b.resolveSlots(ctx, info, page, 1)
	if err != nil {
		return cache.Page{}, b.collectedOr(ctx, info.Ver, err)
	}
	if len(slots) > 1 {
		view := make([]byte, want)
		if err := b.readSlots(ctx, slots, page*ps, view, true); err != nil {
			return cache.Page{}, b.collectedOr(ctx, info.Ver, err)
		}
		return cache.Page{Data: view}, nil
	}
	if slots[0].Ref.Hole {
		return cache.Page{Data: make([]byte, want)}, nil
	}
	// fetchPage validates length: success means >= want bytes.
	view, err := b.c.fetchPage(ctx, slots[0].Ref, want)
	if err != nil {
		return cache.Page{}, b.collectedOr(ctx, info.Ver, err)
	}
	view.Data = view.Data[:want]
	return view, nil
}

// Prefetch warms the shared page cache with the pages covering
// [off, off+n) of version ver, without copying anything out. The BSFS
// readahead engine uses it to keep pages in flight ahead of sequential
// readers; with caching disabled it is a no-op. Ranges beyond the
// version size are clamped, not an error.
func (b *Blob) Prefetch(ctx context.Context, ver, off, n uint64) error {
	if b.c.pages == nil {
		return nil
	}
	info, err := b.resolveVersion(ctx, ver)
	if err != nil {
		return err
	}
	if off >= info.Size || n == 0 {
		return nil
	}
	if off+n > info.Size {
		n = info.Size - off
	}
	ps := b.pageSize
	firstPage := off / ps
	lastPage := (off + n - 1) / ps
	slots, err := b.resolveSlots(ctx, info, firstPage, lastPage-firstPage+1)
	if err != nil {
		return b.collectedOr(ctx, info.Ver, err)
	}
	err = b.c.forEachPage(uint64(len(slots)), func(i uint64) error {
		base, limit := b.extent(slots, i)
		if slots[i].Ref.Hole || base >= off+n {
			return nil
		}
		page, err := b.c.fetchPage(ctx, slots[i].Ref, min(off+n, limit)-base)
		page.Release()
		return err
	})
	return b.collectedOr(ctx, info.Ver, err)
}

// resolveSlots maps pages [first, first+n) of the published version
// info to the refs of their stored pages, in segtree.Resolve's order, by
// address: the BLOB's record index names every leaf, and the node cache
// fetches the ones no earlier read brought in, as one batch. A fresh
// version of a file this client has read costs nothing for the pages it
// did not write. The refs in the result are shared and read-only.
func (b *Blob) resolveSlots(ctx context.Context, info VersionInfo, first, n uint64) ([]segtree.Slot, error) {
	ix, err := b.index(ctx, info.Ver)
	if err != nil {
		return nil, err
	}
	return ix.Locate(ctx, b.c.nodes, b.id, info.Ver, first, n)
}

// index returns the BLOB's record index, holding at least the records
// of versions 1..ver, which name every leaf a read of ver needs. They
// come with the version's info — a Snapshot's pin, GetVersion — so a
// read seldom asks for them; one whose info came from elsewhere
// (Latest, WaitPublished) asks GetVersion once. The index is built on
// the BLOB's first read and grows as records arrive.
func (b *Blob) index(ctx context.Context, ver uint64) (*segtree.Index, error) {
	c := b.c
	c.mu.Lock()
	h := c.historyLocked(b.id)
	if h.complete < ver {
		c.mu.Unlock()
		if _, err := b.GetVersion(ctx, ver); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if h = c.historyLocked(b.id); h.complete < ver {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: have %d of %d records", ErrHistoryGap, h.complete, ver)
		}
	}
	if h.index == nil {
		h.index = new(segtree.Index)
	}
	ix, recs := h.index, h.recs[:h.complete:h.complete]
	c.mu.Unlock()
	if ix.Len() < uint64(len(recs)) {
		ix.Extend(recs)
	}
	return ix, nil
}

// resolveVersion maps ver (0 = latest) to a published VersionInfo.
// Published versions are immutable, so they are answered from a local
// cache after the first lookup; only "latest" always costs an RPC.
func (b *Blob) resolveVersion(ctx context.Context, ver uint64) (VersionInfo, error) {
	if ver == 0 {
		return b.Latest(ctx)
	}
	key := VersionRef{Blob: b.id, Ver: ver}
	c := b.c
	c.mu.Lock()
	info, ok := c.verinfo[key]
	c.mu.Unlock()
	if ok {
		return info, nil
	}
	info, err := b.GetVersion(ctx, ver) // remembers a published info
	if err != nil {
		if errors.Is(err, ErrVersionCollected) {
			// Collection invalidated whatever this client still caches
			// about the version.
			c.PurgeVersion(b.id, ver)
		}
		return VersionInfo{}, err
	}
	if !info.Published {
		return VersionInfo{}, ErrNotPublished
	}
	return info, nil
}

// fetchPage retrieves one page holding at least want bytes, serving it
// from the shared cache when possible. Concurrent readers of the same
// missing page fold into one provider fetch. A cold page is copied out
// of its response frame into a pooled frame of its own, which the cache
// (or, with the cache off, the returned Page) owns, so the response
// frame goes back to the pool at once. The returned Page is shared and
// read-only, and the caller releases it.
func (c *Client) fetchPage(ctx context.Context, ref segtree.PageRef, want uint64) (cache.Page, error) {
	fetch := func(ctx context.Context) ([]byte, error) {
		var resp GetPageResp
		if err := c.fetchPageDirect(ctx, ref, want, &resp); err != nil {
			transport.ReleaseFrame(resp.Data) // a short page, if any
			return nil, err
		}
		return resp.Data, nil
	}
	if c.pages == nil {
		data, err := fetch(ctx)
		if err != nil {
			return cache.Page{}, err
		}
		return cache.Detached(data), nil
	}
	page, err := c.pages.Get(ctx, ref.Page, fetch)
	if err == nil && uint64(len(page.Data)) < want {
		// Cached by an earlier read that needed a narrower prefix of
		// this page; fetch wide and upgrade the entry so later wide
		// reads hit. Get already counted the short-entry hit, so this
		// access records one hit AND one miss — keeping "zero misses"
		// a truthful proxy for "zero provider RPCs".
		page.Release()
		c.rstats.AddMiss()
		data, ferr := fetch(ctx)
		if ferr != nil {
			return cache.Page{}, ferr
		}
		page = c.pages.Put(ref.Page, data)
	}
	return page, err
}

// fetchPageDirect retrieves one page from its replicas into resp, whose
// Data is a pooled frame the caller releases, after a failure too (it
// may hold a short page). It accepts only replies of at least want
// bytes — a truncated/corrupt replica counts as a failed provider and
// the fetch fails over to the next one, so a sick replica can degrade
// latency but never poisons the shared cache. A replica co-located
// with this client is tried first (the map scheduler places tasks next
// to their data, and a local fetch spares both NICs); otherwise the
// starting replica rotates per fetch so remote read traffic spreads
// across replicas instead of hammering the primary. Failed fetches are
// counted in the read stats.
func (c *Client) fetchPageDirect(ctx context.Context, ref segtree.PageRef, want uint64, resp *GetPageResp) error {
	nrep := len(ref.Providers)
	local := -1
	for i, addr := range ref.Providers {
		if transport.Addr(addr).Host() == c.cfg.Host {
			local = i
			break
		}
	}
	start := 0
	if nrep > 1 {
		start = int(c.replicaRR.Add(1) % uint32(nrep))
	}
	var lastErr error
	for i := -1; i < nrep; i++ {
		// The local replica first, if there is one, then the others
		// from start on.
		k := local
		if i >= 0 {
			if k = (start + i) % nrep; k == local {
				continue
			}
		}
		if k < 0 {
			continue
		}
		c.rstats.AddProviderFetch()
		err := c.pool.Call(ctx, transport.Addr(ref.Providers[k]), ProvGetPage, &GetPageReq{Key: ref.Page}, resp)
		switch {
		case err != nil:
			// A cancelled caller is not a sick replica: don't brand
			// the provider (reader Close cancels in-flight prefetches
			// all the time) — the ctx check below stops the sweep.
			if ctx.Err() == nil {
				c.rstats.AddProviderFailure()
			}
			lastErr = err
		case uint64(len(resp.Data)) < want:
			// Either a truncated replica or a legitimately short page
			// (a never-rewritten tail the read version overshoots).
			// Try the remaining replicas, but don't brand the provider
			// as failed: a legitimately short page answers this way
			// from every healthy replica.
			lastErr = fmt.Errorf("%w: page %s has %d bytes, need %d", ErrShortPage, ref.Page, len(resp.Data), want)
		default:
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if errors.Is(lastErr, ErrShortPage) {
		return lastErr
	}
	return fmt.Errorf("%w: %s: %w", ErrPageRead, ref.Page, lastErr)
}

// PageLoc describes where one page of a version lives; the Map/Reduce
// scheduler uses the host list for data-local task placement. This is
// the "new primitive that exposes the pages distribution to providers"
// of §3.2.
type PageLoc struct {
	Index     uint64
	Hole      bool
	Providers []string // endpoint addresses
	Hosts     []string // host names (scheduling units)
}

// PageLocations resolves the page→provider mapping of [off, off+n)
// bytes of version ver (0 = latest published), one location per page: a
// page stored as fragments reports the one its slot begins with.
func (b *Blob) PageLocations(ctx context.Context, ver, off, n uint64) ([]PageLoc, error) {
	info, err := b.resolveVersion(ctx, ver)
	if err != nil {
		return nil, err
	}
	if n == 0 || info.Size == 0 {
		return nil, nil
	}
	if off+n > info.Size {
		n = info.Size - off
	}
	ps := b.pageSize
	firstPage := off / ps
	lastPage := (off + n - 1) / ps
	slots, err := b.resolveSlots(ctx, info, firstPage, lastPage-firstPage+1)
	if err != nil {
		return nil, err
	}
	out := make([]PageLoc, 0, lastPage-firstPage+1)
	for _, s := range slots {
		if s.Ref.Lo != 0 {
			continue // one location per page: where its first stored bytes live
		}
		loc := PageLoc{Index: s.Index, Hole: s.Ref.Hole, Providers: s.Ref.Providers}
		for _, p := range s.Ref.Providers {
			loc.Hosts = append(loc.Hosts, transport.Addr(p).Host())
		}
		out = append(out, loc)
	}
	return out, nil
}

// knownPrefix returns the highest version whose record is cached.
func (c *Client) knownPrefix(blob uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hist[blob]; ok {
		return h.complete
	}
	return 0
}

// historyLocked returns the BLOB's record cache, making an empty one.
// Caller holds c.mu.
func (c *Client) historyLocked(blob uint64) *blobHistory {
	h, ok := c.hist[blob]
	if !ok {
		h = &blobHistory{}
		c.hist[blob] = h
	}
	return h
}

// place caches recs and advances complete over what they fill in.
// Write-once: a record that overlaps what is cached (a slower writer's
// assignment arriving late) must not store into a slot an earlier
// caller may be reading.
func (h *blobHistory) place(recs ...segtree.WriteRecord) {
	for _, rec := range recs {
		if rec.Ver == 0 {
			continue
		}
		idx := rec.Ver - 1
		for uint64(len(h.recs)) <= idx {
			h.recs = append(h.recs, segtree.WriteRecord{})
		}
		if h.recs[idx].Ver == 0 {
			h.recs[idx] = rec
		}
	}
	for h.complete < uint64(len(h.recs)) && h.recs[h.complete].Ver == h.complete+1 {
		h.complete++
	}
}

// learn takes in a GetVersion or Pin reply: the version's info, kept
// once published, and the write records the client lacked.
func (c *Client) learn(blob uint64, resp *VersionResp) {
	c.rememberVersion(blob, resp.Info)
	if len(resp.Records) > 0 {
		c.mu.Lock()
		c.historyLocked(blob).place(resp.Records...)
		c.mu.Unlock()
	}
}

// mergeHistory folds the assignment's history delta plus the writer's
// own record into the cache and returns the full history below own.Ver
// — a read-only view of the cache itself, not a copy, so an append
// costs the same at version 4000 as at version 4.
func (c *Client) mergeHistory(blob uint64, delta []segtree.WriteRecord, own segtree.WriteRecord) ([]segtree.WriteRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.historyLocked(blob)
	h.place(delta...)
	h.place(own)
	need := own.Ver - 1
	if h.complete < need {
		return nil, fmt.Errorf("%w: have %d of %d records", ErrHistoryGap, h.complete, need)
	}
	return h.recs[:need:need], nil
}
