package blob

// vmanager.go is the version manager's RPC/service layer. The decided
// state and every transition over it live in vmstate.go; this file
// validates requests, journals a vmRecord (vmjournal.go) when the
// manager is durable, applies the transition, and answers. The
// write-ahead order — validate, journal, apply, respond — under the
// per-BLOB lock means the journal's per-BLOB record order equals the
// apply order, so replay IS apply and recovery needs no special cases.
//
// With more than one shard address the manager is one shard of a
// partitioned metadata plane: a consistent-hash ring over the shard
// addresses (shared with VMRouter on the client side) decides which
// shard owns each blob id, and each shard allocates ids only from its
// own modular stripe, so shards never talk to each other — not even
// for id allocation.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Sentinel errors returned by the version manager. They cross the RPC
// boundary as message text; wire.RemoteError makes errors.Is work on
// the client side.
var (
	ErrBlobNotFound    = errors.New("blob: not found")
	ErrNotPublished    = errors.New("blob: version not published")
	ErrNoSuchVersion   = errors.New("blob: no such version")
	ErrWaitTimeout     = errors.New("blob: wait-published timeout")
	ErrVersionFinished = errors.New("blob: version already completed or sealed")
	// ErrVersionCollected reports a read of a version (or a whole BLOB)
	// the garbage collector has reclaimed: the version's pages may be
	// gone from the providers, so the only honest answer is this error,
	// never stale or short data.
	ErrVersionCollected = errors.New("blob: version collected")
)

// The durations the version manager acts on are its own, not a
// caller's. lease is both how long a pin holds and how long a version
// may stay pending before the sweep seals it: a crashed reader holds up
// collection, and a crashed writer publication, by at most one lease.
// waitHold is how long a WaitPublished parks before it answers
// ErrWaitTimeout and the client asks again.
const (
	lease    = 2 * time.Minute
	waitHold = 5 * time.Second
)

// VersionManagerConfig configures a version manager.
type VersionManagerConfig struct {
	// Nodes is the metadata store the manager commits hole metadata to
	// when it seals a version. Required.
	Nodes segtree.NodeStore
	// RetainLatest is the default retention policy: keep only the
	// latest k published versions of every BLOB, letting reclaim scans
	// retire the rest. Zero keeps every version (BlobSeer's original
	// keep-forever model); per-BLOB SetRetention overrides it.
	RetainLatest uint64

	// ShardIndex/ShardAddrs place this manager in a partitioned
	// metadata plane: ShardAddrs lists every shard's endpoint (stable
	// across restarts — a standby takes over the dead shard's address,
	// not a new one) and ShardIndex is this shard's slot. The zero
	// value, or one address, is the classic single-manager layout.
	ShardIndex int
	ShardAddrs []transport.Addr

	// JournalPath, when non-empty, makes the manager durable: every
	// decided transition is appended to a kvlog store there before it
	// is acknowledged, and a restart replays the journal to exactly the
	// acknowledged state. Empty keeps the original in-memory manager
	// (tests, simnet). Every 4096 records the manager checkpoints:
	// it snapshots every BLOB and trims the journal the snapshots cover.
	JournalPath string

	// lease and waitHold replace the constants of the same names when
	// non-zero: tests shorten them.
	lease, waitHold time.Duration

	// reclaim, when set, is signalled without blocking after every
	// lifecycle RPC that may create garbage and after every lease sweep:
	// it is the cluster's one channel its collector runs a pass on.
	reclaim chan<- struct{}
}

// VersionManager is BlobSeer's centralized version manager (§3.1.1):
// it assigns version numbers and append offsets, and is "responsible
// for ensuring consistency when concurrent writes to the same BLOB are
// issued". Assignment is the only serialized step of a write and
// exchanges O(1) data plus the write-record history delta.
//
// Locking is two-level so BLOBs never contend with each other: the
// state's lock guards blob-id allocation and membership of the id→state
// map, and every blobState has its own lock for
// assign/complete/seal/wait traffic.
type VersionManager struct {
	srv *rpc.Server
	cfg VersionManagerConfig

	st      *vmState
	journal *vmJournal // nil: in-memory manager

	recovered int // journal records replayed at startup

	// createLogged, when set, runs between a create's journal append and
	// its install: a test seam for a checkpoint that races the create.
	createLogged func()

	done     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	stopErr  error
}

// NewVersionManager starts a version manager at addr. With a journal
// path the store is opened and replayed before the endpoint binds, so
// no request ever observes a partially recovered manager — this is
// also the failover path: a standby pointed at a dead shard's journal
// and address replays and takes over.
func NewVersionManager(net transport.Network, addr transport.Addr, cfg VersionManagerConfig) (*VersionManager, error) {
	if cfg.Nodes == nil {
		return nil, errors.New("blob: version manager needs a metadata store to seal into")
	}
	cfg.lease = cmp.Or(cfg.lease, lease)
	cfg.waitHold = cmp.Or(cfg.waitHold, waitHold)
	var ownsID func(uint64) bool
	if n := len(cfg.ShardAddrs); n > 1 {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= n {
			return nil, fmt.Errorf("blob: shard index %d out of range", cfg.ShardIndex)
		}
		ring := dht.NewRing(cfg.ShardAddrs, vmRingVnodes)
		self := cfg.ShardAddrs[cfg.ShardIndex]
		ownsID = func(id uint64) bool { return vmShard(ring, id) == self }
	}
	vm := &VersionManager{
		cfg:  cfg,
		st:   newVMState(cfg.ShardIndex, len(cfg.ShardAddrs), ownsID),
		done: make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		j, err := openVMJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		n, err := j.replay(vm.st, time.Now())
		if err != nil {
			j.close()
			return nil, err
		}
		vm.journal = j
		vm.recovered = n
	}
	// Every handler is in place before the address binds: a restarted
	// shard's first request is often a router retry.
	srv, err := rpc.Serve(net, addr, func(srv *rpc.Server) {
		srv.Handle(VMCreateBlob, vm.handleCreateBlob)
		srv.Handle(VMAssign, vm.handleAssign)
		srv.Handle(VMComplete, vm.handleComplete)
		srv.Handle(VMSeal, vm.handleSeal)
		srv.Handle(VMGetVersion, vm.handleGetVersion)
		srv.Handle(VMLatest, vm.handleLatest)
		srv.Handle(VMWaitPublished, vm.handleWaitPublished)
		srv.Handle(VMListBlobs, vm.handleListBlobs)
		srv.Handle(VMStats, vm.handleStats)
		srv.Handle(VMSetRetention, vm.handleSetRetention)
		srv.Handle(VMTruncateBefore, vm.handleTruncateBefore)
		srv.Handle(VMDeleteBlob, vm.handleDeleteBlob)
		srv.Handle(VMPin, vm.handlePin)
		srv.Handle(VMUnpin, vm.handleUnpin)
		srv.Handle(VMReclaimScan, vm.handleReclaimScan)
		srv.Handle(VMHistory, vm.handleHistory)
	})
	if err != nil {
		if vm.journal != nil {
			vm.journal.close()
		}
		return nil, err
	}
	vm.srv = srv
	vm.wg.Add(1)
	go vm.sealLoop()
	if vm.journal != nil {
		vm.wg.Add(1)
		go vm.checkpointLoop()
	}
	return vm, nil
}

// Addr returns the manager's endpoint.
func (vm *VersionManager) Addr() transport.Addr { return vm.srv.Addr() }

// RecoveredRecords reports how many journal records startup replayed
// (beyond checkpoint snapshots) — the recovery-cost metric.
func (vm *VersionManager) RecoveredRecords() int { return vm.recovered }

// JournalRecords reports the journal's record sequence number — the
// total records ever appended (not trimmed by checkpoints), 0 for an
// in-memory manager. Deployments export it as the journal-size gauge.
func (vm *VersionManager) JournalRecords() uint64 {
	if vm.journal == nil {
		return 0
	}
	return vm.journal.log.Last()
}

// JournalPending reports records appended since the last checkpoint
// kick — the shard's journal lag (replay debt), 0 for in-memory.
func (vm *VersionManager) JournalPending() int {
	if vm.journal == nil {
		return 0
	}
	return vm.journal.pending()
}

// JournalBytes reports the journal store's on-disk footprint, 0 for
// an in-memory manager.
func (vm *VersionManager) JournalBytes() int64 {
	if vm.journal == nil {
		return 0
	}
	return vm.journal.bytes()
}

// MonitorSample reports the shard's live stats in the cluster
// monitor's sample shape ("_total" keys are counters, others gauges).
// Returned as a plain map so the blob layer stays free of a monitor
// dependency.
func (vm *VersionManager) MonitorSample() map[string]float64 {
	return map[string]float64{
		"blobs":                 float64(vm.st.blobCount()),
		"assigned_total":        float64(vm.st.assigned.Load()),
		"published_total":       float64(vm.st.publishedCount.Load()),
		"sealed_total":          float64(vm.st.sealed.Load()),
		"journal_records_total": float64(vm.JournalRecords()),
		"journal_pending":       float64(vm.JournalPending()),
		"journal_bytes":         float64(vm.JournalBytes()),
	}
}

// Close stops the manager cleanly: the endpoint unbinds, loops drain,
// and a durable manager writes a final checkpoint so the next open
// replays (almost) nothing.
func (vm *VersionManager) Close() error { return vm.stop(true) }

// Kill stops the manager WITHOUT the final checkpoint — the crash
// path for failover tests and kill-one-shard runs. The journal store
// closes as-is; the next open replays raw records. In-flight handlers
// that lose the race fail their journal append against the closed
// store and never acknowledge, which is exactly the crash semantics:
// acknowledged implies journaled.
func (vm *VersionManager) Kill() error { return vm.stop(false) }

func (vm *VersionManager) stop(checkpoint bool) error {
	vm.stopOnce.Do(func() {
		close(vm.done)
		err := vm.srv.Close()
		vm.wg.Wait()
		if vm.journal != nil {
			if checkpoint {
				if cerr := vm.journal.checkpoint(vm.st); cerr != nil && err == nil {
					err = cerr
				}
			}
			if cerr := vm.journal.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		vm.stopErr = err
	})
	return vm.stopErr
}

// logRecord persists rec when the manager is durable. A nil journal
// acknowledges immediately (in-memory mode). On error the caller must
// not mutate state: nothing was promised.
func (vm *VersionManager) logRecord(rec *vmRecord) error {
	if vm.journal == nil {
		return nil
	}
	return vm.journal.append(rec)
}

// checkpointLoop writes a checkpoint whenever the journal accumulates
// checkpointEvery records since the last one.
func (vm *VersionManager) checkpointLoop() {
	defer vm.wg.Done()
	for {
		select {
		case <-vm.done:
			return
		case <-vm.journal.kick:
			// Errors are not fatal: the journal itself is intact, the
			// next kick (or the final checkpoint on Close) retries.
			if err := vm.journal.checkpoint(vm.st); err != nil {
				obs.Log.Warnf("blob: version-manager checkpoint: %v", err)
			}
		}
	}
}

func (vm *VersionManager) handleCreateBlob(r *wire.Reader) (wire.Marshaler, error) {
	var req CreateBlobReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if req.PageSize == 0 {
		return nil, errors.New("blob: zero page size")
	}
	if req.PageSize > 1<<31 {
		// An in-slot offset travels as segtree.PageRef.Lo, a uint32.
		return nil, fmt.Errorf("blob: page size %d exceeds %d", req.PageSize, uint64(1)<<31)
	}
	// Skipped stripe candidates (ids the ring maps elsewhere) are never
	// journaled; replay re-skips them identically. A journal failure
	// burns the allocated id, which is harmless — ids are not dense.
	id := vm.st.allocBlobID()
	rec := vmRecord{Op: vmOpCreate, Blob: id, Val: req.PageSize}
	// Journal and install under st.creating, which a checkpoint takes
	// while it reads its start seq and lists the BLOBs: the create is in
	// the listing or above the seq the checkpoint trims through.
	vm.st.creating.RLock()
	defer vm.st.creating.RUnlock()
	if err := vm.logRecord(&rec); err != nil {
		return nil, err
	}
	if vm.createLogged != nil {
		vm.createLogged()
	}
	vm.st.applyCreate(rec)
	return &CreateBlobResp{Blob: id}, nil
}

func (vm *VersionManager) handleAssign(r *wire.Reader) (wire.Marshaler, error) {
	var req AssignReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if req.Len == 0 {
		return nil, errors.New("blob: zero-length write")
	}
	if req.Kind != KindAppend && req.Kind != KindWrite {
		return nil, fmt.Errorf("blob: unknown write kind %d", req.Kind)
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	// A write's pages are counted off the wire: bound them before the
	// record is journaled, as pm.Alloc bounds its own, because a seal
	// allocates a hole reference per page.
	if pages := (req.Len-1)/bs.pageSize + 1; pages > maxAllocPages {
		return nil, fmt.Errorf("blob: write of %d bytes is %d pages of %d bytes, at most %d pages at a time", req.Len, pages, bs.pageSize, maxAllocPages)
	}
	if req.Off+req.Len < req.Off {
		return nil, fmt.Errorf("blob: write of %d bytes at offset %d ends past the largest offset", req.Len, req.Off)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.deleted {
		return nil, ErrBlobNotFound
	}
	// A retry of an assign whose answer was lost (the shard journaled
	// it, then failed over) gets the version the first attempt made,
	// not a second one behind an orphan nobody completes.
	if ver := bs.retriedLocked(&req); ver != 0 {
		return bs.assignResp(ver, req.SinceVer), nil
	}
	rec := vmRecord{Op: vmOpAssign, Blob: req.Blob, Kind: req.Kind, Off: req.Off, Len: req.Len, Val: req.Writer}
	if err := vm.logRecord(&rec); err != nil {
		return nil, err
	}
	ver := vm.st.applyAssignLocked(bs, rec, time.Now())
	return bs.assignResp(ver, req.SinceVer), nil
}

func (vm *VersionManager) handleComplete(r *wire.Reader) (wire.Marshaler, error) {
	var req VersionRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.deleted {
		return nil, ErrBlobNotFound
	}
	if req.Ver == 0 || req.Ver > uint64(len(bs.status)) {
		return nil, ErrNoSuchVersion
	}
	switch bs.status[req.Ver-1] {
	case vsPending:
		rec := vmRecord{Op: vmOpComplete, Blob: req.Blob, Ver: req.Ver}
		if err := vm.logRecord(&rec); err != nil {
			return nil, err
		}
		vm.st.applyCompleteLocked(bs, rec)
		return nil, nil
	case vsCompleted:
		// Idempotent: the router retries completes whose response was
		// lost in a failover window; the durable answer must not change.
		return nil, nil
	default:
		// Sealed while the writer was finishing: the writer must know
		// its version did not (cleanly) publish.
		return nil, ErrVersionFinished
	}
}

func (vm *VersionManager) handleSeal(r *wire.Reader) (wire.Marshaler, error) {
	var req VersionRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if err := vm.seal(req.Blob, req.Ver); err != nil {
		return nil, err
	}
	return nil, nil
}

// seal aborts a pending version: the manager commits hole metadata for
// its write interval so readers of later versions see zeros there and
// the publication chain advances past the failed writer. A version that
// was to store a fragment in its first slot seals as a hole fragment:
// zeros from its Head on, the bytes earlier versions stored before it
// untouched. The sealed record is journaled only AFTER the hole metadata
// is durably in the metadata DHT, so replaying vmOpSealed never needs
// I/O; a crash between commit and journal re-seals one lease after the
// restart, and segtree.Commit is idempotent for identical content.
func (vm *VersionManager) seal(blob, ver uint64) error {
	bs, ok := vm.st.lookup(blob)
	if !ok {
		return ErrBlobNotFound
	}
	bs.mu.Lock()
	if bs.deleted {
		bs.mu.Unlock()
		return nil // the whole BLOB is dead; nothing left to unwedge
	}
	if ver == 0 || ver > uint64(len(bs.status)) {
		bs.mu.Unlock()
		return ErrNoSuchVersion
	}
	if bs.status[ver-1] != vsPending {
		bs.mu.Unlock()
		return nil // already finished; nothing to do
	}
	bs.status[ver-1] = vsSealing
	rec := bs.records[ver-1]
	history := append([]segtree.WriteRecord(nil), bs.records[:ver-1]...)
	bs.mu.Unlock()

	// Commit hole metadata outside the lock (network I/O).
	holes := make([]segtree.PageRef, rec.N)
	for i := range holes {
		holes[i] = segtree.PageRef{Hole: true}
	}
	//lint:detached sealing runs on the manager's lease sweep, not a caller RPC; its own 30s deadline bounds the commit
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	commitErr := segtree.Commit(ctx, vm.cfg.Nodes, blob, rec, history, holes)
	cancel()

	bs.mu.Lock()
	defer bs.mu.Unlock()
	if commitErr == nil {
		jrec := vmRecord{Op: vmOpSealed, Blob: blob, Ver: ver}
		commitErr = vm.logRecord(&jrec)
		if commitErr == nil {
			bs.status[ver-1] = vsPending // applySealedLocked flips it
			vm.st.applySealedLocked(bs, jrec)
			return nil
		}
	}
	// Roll back to pending; the seal loop will retry.
	bs.status[ver-1] = vsPending
	return fmt.Errorf("blob: seal %d/%d: %w", blob, ver, commitErr)
}

// sealLoop seals every version that has been pending for longer than
// one lease. assignedAt is the replay time for a version assigned
// before a restart, so an orphan of a crash is sealed one lease after
// the restart. Each sweep then signals the collector: retention and
// expired pins create garbage that no RPC announces.
func (vm *VersionManager) sealLoop() {
	defer vm.wg.Done()
	tick := time.NewTicker(vm.cfg.lease / 4)
	defer tick.Stop()
	for {
		select {
		case <-vm.done:
			return
		case <-tick.C:
		}
		type target struct{ blob, ver uint64 }
		var targets []target
		now := time.Now()
		for _, e := range vm.st.blobStates() {
			bs := e.bs
			bs.mu.Lock()
			if bs.deleted {
				bs.mu.Unlock()
				continue
			}
			// Only the version blocking publication can stall others;
			// seal any expired pending version though, oldest first.
			for v := bs.published + 1; v <= uint64(len(bs.status)); v++ {
				if bs.status[v-1] == vsPending && now.Sub(bs.assignedAt[v-1]) > vm.cfg.lease {
					targets = append(targets, target{e.id, v})
				}
			}
			bs.mu.Unlock()
		}
		for _, t := range targets {
			// Errors are retried on the next tick.
			if err := vm.seal(t.blob, t.ver); err != nil {
				obs.Log.Warnf("blob %d: lease seal of version %d: %v", t.blob, t.ver, err)
			}
		}
		vm.reclaimKick()
	}
}

func (vm *VersionManager) handleGetVersion(r *wire.Reader) (wire.Marshaler, error) {
	var req GetVersionReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	// Only versions behind the collection frontier are refused: a
	// pinned snapshot of a deleted BLOB stays readable until its pin
	// releases and the frontier passes it.
	if bs.collectedGet(req.Ver) {
		return nil, ErrVersionCollected
	}
	if req.Ver > uint64(len(bs.records)) {
		if bs.deleted {
			return nil, ErrVersionCollected
		}
		return nil, ErrNoSuchVersion
	}
	return &VersionResp{Info: bs.info(req.Ver), Records: bs.recordsSince(req.SinceVer, req.Ver)}, nil
}

func (vm *VersionManager) handleLatest(r *wire.Reader) (wire.Marshaler, error) {
	var req BlobRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.deleted {
		return nil, ErrVersionCollected
	}
	info := bs.info(bs.published)
	return &info, nil
}

func (vm *VersionManager) handleWaitPublished(r *wire.Reader) (wire.Marshaler, error) {
	var req VersionRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	if bs.collectedGet(req.Ver) {
		bs.mu.Unlock()
		return nil, ErrVersionCollected
	}
	// A version beyond the assigned range is not an error: the next
	// appender will be assigned it, and tailing readers (WaitVersion)
	// wait for exactly that. The waiter registered below fires when
	// publication reaches the version, however far in the future its
	// assignment lies; until then each wait returns ErrWaitTimeout and
	// the client's retry loop carries on.
	if req.Ver <= bs.published {
		info := bs.info(req.Ver)
		bs.mu.Unlock()
		return &info, nil
	}
	if bs.deleted {
		// The publication chain of a deleted BLOB never advances; fail
		// instead of blocking for the whole timeout.
		bs.mu.Unlock()
		return nil, ErrVersionCollected
	}
	ch := make(chan struct{})
	bs.waiters[req.Ver] = append(bs.waiters[req.Ver], ch)
	bs.mu.Unlock()

	timer := time.NewTimer(vm.cfg.waitHold)
	defer timer.Stop()
	select {
	case <-ch:
		bs.mu.Lock()
		if bs.deleted || bs.collectedGet(req.Ver) {
			// Woken by DeleteBlob, not publication.
			bs.mu.Unlock()
			return nil, ErrVersionCollected
		}
		info := bs.info(req.Ver)
		bs.mu.Unlock()
		return &info, nil
	case <-timer.C:
		bs.mu.Lock()
		if req.Ver <= bs.published {
			// Published in the race window; the channel was (or is
			// being) closed by advanceLocked, not left behind.
			info := bs.info(req.Ver)
			bs.mu.Unlock()
			return &info, nil
		}
		bs.removeWaiterLocked(req.Ver, ch)
		bs.mu.Unlock()
		return nil, ErrWaitTimeout
	case <-vm.done:
		bs.mu.Lock()
		bs.removeWaiterLocked(req.Ver, ch)
		bs.mu.Unlock()
		return nil, rpc.ErrServerClosed
	}
}

// waiterCount reports the registered waiter channels for one version of
// one blob (test hook for the waiter-leak regression test).
func (vm *VersionManager) waiterCount(blob, ver uint64) int {
	bs, ok := vm.st.lookup(blob)
	if !ok {
		return 0
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.waiters[ver])
}

// handleHistory enumerates the published versions still inside the
// retention window: everything from the collection frontier up to the
// latest published version, oldest first. The snapshot-first public
// API (dfs.VersionedFileSystem.Versions) is built on it.
func (vm *VersionManager) handleHistory(r *wire.Reader) (wire.Marshaler, error) {
	var req HistoryReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.deleted {
		return nil, ErrVersionCollected
	}
	from := bs.frontier
	if from < 1 {
		from = 1
	}
	if req.Limit > 0 && bs.published >= from && bs.published-from+1 > req.Limit {
		from = bs.published - req.Limit + 1
	}
	resp := &HistoryResp{}
	for v := from; v <= bs.published; v++ {
		resp.Infos = append(resp.Infos, bs.info(v))
	}
	return resp, nil
}

func (vm *VersionManager) handleListBlobs(r *wire.Reader) (wire.Marshaler, error) {
	return &ListBlobsResp{Blobs: vm.st.listBlobs()}, nil
}

func (vm *VersionManager) handleStats(r *wire.Reader) (wire.Marshaler, error) {
	return &VMStatsResp{
		Blobs:     vm.st.blobCount(),
		Assigned:  vm.st.assigned.Load(),
		Published: vm.st.publishedCount.Load(),
		Sealed:    vm.st.sealed.Load(),
	}, nil
}

//
// Lifecycle: retention policy, pins, deletion, and the reclaim scan
// that feeds the garbage collector (internal/gc).
//

// reclaimKick tells the collector a pass may find garbage. A signal
// already pending covers this one.
func (vm *VersionManager) reclaimKick() {
	select {
	case vm.cfg.reclaim <- struct{}{}:
	default:
	}
}

func (vm *VersionManager) handleSetRetention(r *wire.Reader) (wire.Marshaler, error) {
	var req SetRetentionReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	if bs.deleted {
		bs.mu.Unlock()
		return nil, ErrBlobNotFound
	}
	rec := vmRecord{Op: vmOpRetain, Blob: req.Blob, Val: req.Retain}
	if err := vm.logRecord(&rec); err != nil {
		bs.mu.Unlock()
		return nil, err
	}
	bs.retain, bs.retainSet = req.Retain, true
	bs.mu.Unlock()
	vm.reclaimKick()
	return nil, nil
}

func (vm *VersionManager) handleTruncateBefore(r *wire.Reader) (wire.Marshaler, error) {
	var req VersionRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	if bs.deleted {
		bs.mu.Unlock()
		return nil, ErrBlobNotFound
	}
	// The latest published version always survives a truncation; only
	// DeleteBlob retires a whole BLOB. The clamped value is what gets
	// journaled, so replay is independent of publication timing.
	ver := req.Ver
	if ver > bs.published {
		ver = bs.published
	}
	if ver > bs.truncBefore {
		rec := vmRecord{Op: vmOpTrunc, Blob: req.Blob, Ver: ver}
		if err := vm.logRecord(&rec); err != nil {
			bs.mu.Unlock()
			return nil, err
		}
		bs.truncBefore = ver
	}
	bs.mu.Unlock()
	vm.reclaimKick()
	return nil, nil
}

func (vm *VersionManager) handleDeleteBlob(r *wire.Reader) (wire.Marshaler, error) {
	var req BlobRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	if !bs.deleted {
		rec := vmRecord{Op: vmOpDelete, Blob: req.Blob}
		if err := vm.logRecord(&rec); err != nil {
			bs.mu.Unlock()
			return nil, err
		}
		vm.st.applyDeleteLocked(bs)
	}
	bs.mu.Unlock()
	vm.reclaimKick()
	return nil, nil
}

func (vm *VersionManager) handlePin(r *wire.Reader) (wire.Marshaler, error) {
	var req GetVersionReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.deleted || bs.collectedGet(req.Ver) {
		// Too late: the version is already in the collector's hands. A
		// pin either lands before the reclaim scan (the version is then
		// excluded) or is refused here — there is no window where a
		// pinned version's pages disappear.
		return nil, ErrVersionCollected
	}
	if req.Ver == 0 || req.Ver > uint64(len(bs.records)) {
		return nil, ErrNoSuchVersion
	}
	// Pins are soft state, deliberately not journaled: a manager crash
	// forgets them, which costs at most one lease of early collection
	// — the same bound as a crashed pin holder.
	if bs.pins == nil {
		bs.pins = make(map[uint64]*pinLease)
	}
	p := bs.pins[req.Ver]
	if p == nil {
		p = &pinLease{}
		bs.pins[req.Ver] = p
	}
	p.count++
	if exp := time.Now().Add(vm.cfg.lease); exp.After(p.expires) {
		p.expires = exp
	}
	return &VersionResp{Info: bs.info(req.Ver), Records: bs.recordsSince(req.SinceVer, req.Ver)}, nil
}

func (vm *VersionManager) handleUnpin(r *wire.Reader) (wire.Marshaler, error) {
	var req VersionRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	bs, ok := vm.st.lookup(req.Blob)
	if !ok {
		return nil, ErrBlobNotFound
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if p := bs.pins[req.Ver]; p != nil {
		p.count--
		if p.count <= 0 {
			delete(bs.pins, req.Ver)
		}
	}
	return nil, nil
}

// handleReclaimScan computes, marks, and hands out every newly dead
// version. Marking happens here, atomically with the scan, so reads of
// a handed-out version fail with ErrVersionCollected before its pages
// start disappearing, and no later pin can land on it. The journaled
// frontier record carries the computed target (pins already folded
// in), so replay does not depend on pin state.
func (vm *VersionManager) handleReclaimScan(r *wire.Reader) (wire.Marshaler, error) {
	resp := &ReclaimScanResp{}
	now := time.Now()
	for _, e := range vm.st.blobStates() {
		bs := e.bs
		bs.mu.Lock()
		to, blocked, advance := bs.reclaimTargetLocked(vm.cfg.RetainLatest, now)
		resp.PinsBlocked += blocked
		if advance {
			rec := vmRecord{Op: vmOpFrontier, Blob: e.id, Ver: to}
			if err := vm.logRecord(&rec); err != nil {
				// Skip this BLOB: the frontier did not move, no pages
				// are handed out, the next scan retries.
				bs.mu.Unlock()
				continue
			}
			// Build the work item BEFORE applying: a tombstoning
			// advance drops the record arrays.
			br := bs.buildReclaimLocked(e.id, to)
			vm.st.applyFrontierLocked(bs, rec)
			resp.Blobs = append(resp.Blobs, *br)
		}
		bs.mu.Unlock()
	}
	return resp, nil
}
