package blob

// vmstate.go is the version manager's state machine, kept pure so the
// same transition code serves both paths: live RPC handlers validate a
// request, journal a vmRecord, then apply it; recovery replays the
// journaled records through the identical apply functions. Anything the
// manager decides (blob creation, version assignment, completion,
// sealing, retention, deletion, frontier advances) is a vmRecord;
// anything soft (waiters, pin leases, assignment timestamps) lives only
// in memory and is rebuilt or forgotten across a restart.

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/segtree"
	"blobseer/internal/wire"
)

// Version lifecycle inside the manager.
type vstatus uint8

const (
	vsPending vstatus = iota
	vsCompleted
	vsSealing
	vsSealed
)

// blobState is the version manager's bookkeeping for one BLOB. Each
// blobState carries its own lock, so writers of different BLOBs never
// contend on the version manager: assignment is serialized per BLOB
// (the paper's consistency requirement), not globally.
type blobState struct {
	mu       sync.Mutex
	pageSize uint64
	// Per assigned version v (index v-1):
	records    []segtree.WriteRecord
	sizes      []uint64
	status     []vstatus
	assignedAt []time.Time
	// published is the highest published version (0 = none). Versions
	// publish strictly in assignment order: v publishes only once v-1
	// has published and v has completed (or been sealed).
	published uint64
	waiters   map[uint64][]chan struct{}

	// Lifecycle state (internal/gc). Versions below truncBefore are
	// retirable; retain (when retainSet) overrides the manager's default
	// RetainLatest policy; deleted marks the whole BLOB dead. frontier
	// is the collection frontier: every version below it has been handed
	// to the collector — its pages may be gone, so reads must fail with
	// ErrVersionCollected. The frontier only advances (atomically with
	// the reclaim scan) and never passes a pinned version, so a pinned
	// snapshot's pages are never deleted and a pin on an already
	// collected version is refused — there is no in-between.
	retain      uint64
	retainSet   bool
	truncBefore uint64
	deleted     bool
	frontier    uint64 // versions < frontier are collected (0/1 = none)
	pins        map[uint64]*pinLease
}

// pinLease aggregates the live pins of one version: a refcount plus
// the latest lease expiry. Expired leases are pruned by reclaim scans,
// so a crashed reader delays collection by at most one TTL. Pins are
// soft state: a manager crash drops them, bounded by the lease TTL the
// holder already agreed to.
type pinLease struct {
	count   int
	expires time.Time
}

// collectedGet reports whether ver was handed to the collector.
// Version 0 (the empty initial snapshot) has no pages and is never
// collected.
func (bs *blobState) collectedGet(ver uint64) bool {
	return ver >= 1 && ver < bs.frontier
}

func (bs *blobState) info(ver uint64) VersionInfo {
	if ver == 0 {
		return VersionInfo{Ver: 0, Published: true}
	}
	i := ver - 1
	return VersionInfo{
		Ver:       ver,
		Size:      bs.sizes[i],
		Pages:     bs.records[i].PagesAfter,
		Published: ver <= bs.published,
		Sealed:    bs.status[i] == vsSealed || bs.status[i] == vsSealing,
	}
}

// removeWaiterLocked deregisters one waiter channel for ver. Callers
// whose wait ends without publication (timeout, server shutdown) must
// deregister, or the waiter list grows without bound while the version
// stays pending.
func (bs *blobState) removeWaiterLocked(ver uint64, ch chan struct{}) {
	chans := bs.waiters[ver]
	for i, c := range chans {
		if c == ch {
			chans[i] = chans[len(chans)-1]
			chans = chans[:len(chans)-1]
			break
		}
	}
	if len(chans) == 0 {
		delete(bs.waiters, ver)
	} else {
		bs.waiters[ver] = chans
	}
}

//
// Journal records.
//

// Journal record ops: every decided state transition of the manager.
const (
	vmOpCreate   uint8 = iota + 1 // Blob, Val=pageSize
	vmOpAssign                    // Blob, Kind, Off, Len
	vmOpComplete                  // Blob, Ver
	vmOpSealed                    // Blob, Ver (journaled only after hole metadata committed)
	vmOpRetain                    // Blob, Val=retain
	vmOpTrunc                     // Blob, Ver (already clamped to published)
	vmOpDelete                    // Blob
	vmOpFrontier                  // Blob, Ver=new frontier (pin clamping already folded in)
)

// vmRecord is one journaled state transition. Records carry the
// request inputs, not the outcomes: applied in sequence order they
// recompute every outcome deterministically (assign offsets, version
// numbers, publication), which is what makes the live mutation path and
// crash replay the same code.
type vmRecord struct {
	Seq  uint64 // journal sequence, assigned at append
	Op   uint8
	Blob uint64
	Ver  uint64
	Kind uint64
	Off  uint64
	Len  uint64
	Val  uint64
}

func (rec vmRecord) encode() []byte {
	b := make([]byte, 1, 48)
	b[0] = rec.Op
	b = wire.AppendUvarint(b, rec.Seq)
	b = wire.AppendUvarint(b, rec.Blob)
	b = wire.AppendUvarint(b, rec.Ver)
	b = wire.AppendUvarint(b, rec.Kind)
	b = wire.AppendUvarint(b, rec.Off)
	b = wire.AppendUvarint(b, rec.Len)
	b = wire.AppendUvarint(b, rec.Val)
	return b
}

func decodeVMRecord(data []byte) (vmRecord, error) {
	if len(data) == 0 {
		return vmRecord{}, errors.New("blob: empty journal record")
	}
	r := wire.NewReader(data[1:])
	rec := vmRecord{Op: data[0]}
	rec.Seq = r.Uvarint()
	rec.Blob = r.Uvarint()
	rec.Ver = r.Uvarint()
	rec.Kind = r.Uvarint()
	rec.Off = r.Uvarint()
	rec.Len = r.Uvarint()
	rec.Val = r.Uvarint()
	return rec, r.Err()
}

//
// State machine.
//

// vmState is the manager's decided state plus the pure transition
// functions over it. One instance backs one manager shard; with
// metadata-ring sharding, blob ids are allocated from this shard's
// modular stripe (id ≡ shardIndex+1 mod shardCount) so shards never
// coordinate on id allocation, and candidates the consistent-hash ring
// maps to a different shard are skipped so ownership stays a pure ring
// lookup for every caller.
type vmState struct {
	shardIndex int
	shardCount int
	ownsID     func(uint64) bool // nil = owns every id (unsharded)

	// mu guards the stripe counter and membership of the id→state map,
	// and is held only for an allocation, a lookup or an insert;
	// per-BLOB state is guarded by blobState.mu.
	mu         sync.Mutex
	nextStripe uint64
	blobs      map[uint64]*blobState

	assigned       atomic.Uint64
	publishedCount atomic.Uint64
	sealed         atomic.Uint64
}

func newVMState(index, count int, ownsID func(uint64) bool) *vmState {
	if count <= 0 {
		count = 1
	}
	return &vmState{shardIndex: index, shardCount: count, ownsID: ownsID, blobs: make(map[uint64]*blobState)}
}

// lookup resolves a blob id to its state.
func (st *vmState) lookup(blob uint64) (*blobState, bool) {
	st.mu.Lock()
	bs, ok := st.blobs[blob]
	st.mu.Unlock()
	return bs, ok
}

// allocBlobID returns the next unused id of this shard's stripe that
// the metadata ring maps back to this shard. Skipped candidates are
// never journaled; replay re-skips them identically because the ring is
// built from the same stable shard addresses.
func (st *vmState) allocBlobID() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		id := st.nextStripe*uint64(st.shardCount) + uint64(st.shardIndex) + 1
		st.nextStripe++
		if st.ownsID == nil || st.ownsID(id) {
			return id
		}
	}
}

// noteID folds an existing blob id (replayed create or snapshot) into
// the stripe counter so post-recovery allocation resumes past it.
func (st *vmState) noteID(id uint64) {
	if id == 0 {
		return
	}
	ord := (id - 1) / uint64(st.shardCount)
	st.mu.Lock()
	if ord+1 > st.nextStripe {
		st.nextStripe = ord + 1
	}
	st.mu.Unlock()
}

// blobEntry pairs a blob id with its state for whole-map sweeps.
type blobEntry struct {
	id uint64
	bs *blobState
}

// blobStates snapshots the (id, state) pairs of every known BLOB. The
// map lock is released before any bs.mu is taken, preserving the
// map-lock-before-blob-lock discipline.
func (st *vmState) blobStates() []blobEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]blobEntry, 0, len(st.blobs))
	for id, bs := range st.blobs {
		out = append(out, blobEntry{id: id, bs: bs})
	}
	return out
}

// listBlobs returns every live (non-deleted) blob id, ascending.
func (st *vmState) listBlobs() []uint64 {
	var out []uint64
	for _, e := range st.blobStates() {
		e.bs.mu.Lock()
		dead := e.bs.deleted
		e.bs.mu.Unlock()
		if !dead {
			out = append(out, e.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blobCount counts every known BLOB (tombstones included), for stats.
func (st *vmState) blobCount() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return uint64(len(st.blobs))
}

// apply replays one journal record. It is the recovery path; live
// handlers call the op-specific applyXxxLocked functions directly under
// the same locks, so both paths share every transition.
func (st *vmState) apply(rec vmRecord, now time.Time) {
	if rec.Op == vmOpCreate {
		st.applyCreate(rec)
		return
	}
	bs, ok := st.lookup(rec.Blob)
	if !ok {
		return // snapshot already covers (or never knew) this blob
	}
	bs.mu.Lock()
	switch rec.Op {
	case vmOpAssign:
		st.applyAssignLocked(bs, rec, now)
	case vmOpComplete:
		st.applyCompleteLocked(bs, rec)
	case vmOpSealed:
		st.applySealedLocked(bs, rec)
	case vmOpRetain:
		bs.retain, bs.retainSet = rec.Val, true
	case vmOpTrunc:
		if rec.Ver > bs.truncBefore {
			bs.truncBefore = rec.Ver
		}
	case vmOpDelete:
		st.applyDeleteLocked(bs)
	case vmOpFrontier:
		st.applyFrontierLocked(bs, rec)
	}
	bs.mu.Unlock()
}

// applyCreate installs a new BLOB.
func (st *vmState) applyCreate(rec vmRecord) *blobState {
	bs := &blobState{
		pageSize: rec.Val,
		waiters:  make(map[uint64][]chan struct{}),
	}
	st.mu.Lock()
	if cur, ok := st.blobs[rec.Blob]; ok {
		// Replay after a snapshot that already covers the create.
		st.mu.Unlock()
		return cur
	}
	st.blobs[rec.Blob] = bs
	st.mu.Unlock()
	st.noteID(rec.Blob)
	return bs
}

// assignResult is everything AssignResp needs besides the history delta.
type assignResult struct {
	ver       uint64
	start     uint64
	prevSize  uint64
	sizeAfter uint64
	rec       segtree.WriteRecord
}

// applyAssignLocked appends one version assignment. Caller holds bs.mu.
// Offsets, version numbers and whether the version stores a fragment in
// its first page slot derive from prior state only, so replay in journal
// order recomputes the exact assignments handed out live.
func (st *vmState) applyAssignLocked(bs *blobState, rec vmRecord, now time.Time) assignResult {
	ps := bs.pageSize
	var prevSize uint64
	if n := len(bs.sizes); n > 0 {
		prevSize = bs.sizes[n-1]
	}
	var start uint64
	switch rec.Kind {
	case KindAppend:
		// §3.1.2: "the offset is implicitly assumed to be the size of
		// the latest version" — latest *assigned*, so concurrent
		// appenders receive disjoint consecutive regions.
		start = prevSize
	case KindWrite:
		start = rec.Off
	}
	sizeAfter := start + rec.Len
	if sizeAfter < prevSize {
		sizeAfter = prevSize
	}
	// A write beginning in a page past a partly filled last page stores
	// from where that page's bytes end, the gap zero-filled: the version
	// must own the page's tail, or a read across it would find the last
	// writer's page short.
	stored := start
	if prevSize%ps != 0 && start/ps > prevSize/ps {
		stored = prevSize
	}
	pageOff := stored / ps
	pageEnd := (start + rec.Len + ps - 1) / ps
	ver := uint64(len(bs.records)) + 1
	w := segtree.WriteRecord{
		Ver:        ver,
		Off:        pageOff,
		N:          pageEnd - pageOff,
		PagesAfter: (sizeAfter + ps - 1) / ps,
		Head:       segtree.FragmentHead(bs.records, ps, prevSize, stored),
	}
	bs.records = append(bs.records, w)
	bs.sizes = append(bs.sizes, sizeAfter)
	bs.status = append(bs.status, vsPending)
	bs.assignedAt = append(bs.assignedAt, now)
	st.assigned.Add(1)
	return assignResult{ver: ver, start: start, prevSize: prevSize, sizeAfter: sizeAfter, rec: w}
}

// applyCompleteLocked marks one version completed and advances
// publication. Idempotent: re-applying (retried RPC, replay after
// snapshot) is a no-op.
func (st *vmState) applyCompleteLocked(bs *blobState, rec vmRecord) {
	if rec.Ver == 0 || rec.Ver > uint64(len(bs.status)) {
		return
	}
	if bs.status[rec.Ver-1] != vsPending {
		return
	}
	bs.status[rec.Ver-1] = vsCompleted
	st.advanceLocked(bs)
}

// applySealedLocked marks one version sealed. The hole metadata is
// already durably committed to the metadata DHT before this record is
// journaled, so replay needs no I/O.
func (st *vmState) applySealedLocked(bs *blobState, rec vmRecord) {
	if rec.Ver == 0 || rec.Ver > uint64(len(bs.status)) {
		return
	}
	if s := bs.status[rec.Ver-1]; s == vsSealed || s == vsCompleted {
		return
	}
	bs.status[rec.Ver-1] = vsSealed
	st.sealed.Add(1)
	st.advanceLocked(bs)
}

// applyDeleteLocked retires a whole BLOB and wakes every waiter, which
// observes deleted and fails cleanly.
func (st *vmState) applyDeleteLocked(bs *blobState) {
	if bs.deleted {
		return
	}
	bs.deleted = true
	for ver, chans := range bs.waiters {
		for _, ch := range chans {
			close(ch)
		}
		delete(bs.waiters, ver)
	}
}

// applyFrontierLocked advances the collection frontier to rec.Ver,
// prunes pin entries behind it, and tombstones a fully collected
// deleted BLOB (drop the bulk arrays, keep the flags so reads keep
// failing with ErrVersionCollected).
func (st *vmState) applyFrontierLocked(bs *blobState, rec vmRecord) {
	if rec.Ver <= bs.frontier {
		return
	}
	bs.frontier = rec.Ver
	for v := range bs.pins {
		if v < bs.frontier {
			delete(bs.pins, v)
		}
	}
	if bs.deleted && bs.frontier == uint64(len(bs.records))+1 {
		bs.records, bs.sizes, bs.status, bs.assignedAt = nil, nil, nil, nil
	}
}

// advanceLocked publishes the longest contiguous prefix of finished
// versions and wakes the corresponding waiters. Caller holds bs.mu.
func (st *vmState) advanceLocked(bs *blobState) {
	for bs.published < uint64(len(bs.status)) {
		s := bs.status[bs.published]
		if s != vsCompleted && s != vsSealed {
			break
		}
		bs.published++
		st.publishedCount.Add(1)
		if chans, ok := bs.waiters[bs.published]; ok {
			for _, ch := range chans {
				close(ch)
			}
			delete(bs.waiters, bs.published)
		}
	}
}

//
// Reclaim scan: the pure target computation, split from the frontier
// mutation so the advance journals (vmOpFrontier) before it applies.
//

// reclaimTargetLocked computes how far the collection frontier may
// advance. Caller holds bs.mu. It prunes nothing and mutates nothing:
// the effective target already folds in the retention policy and every
// live pin's clamp, so journaling the returned value keeps replay
// independent of pin state (which is soft and lost across restarts).
// blocked counts the versions a live pin held back this scan.
func (bs *blobState) reclaimTargetLocked(defaultRetain uint64, now time.Time) (to, blocked uint64, advance bool) {
	// policyDead is the exclusive upper bound the policy wants dead:
	// everything below it may go. The latest published version always
	// survives unless the BLOB is deleted.
	var policyDead uint64
	if bs.deleted {
		policyDead = uint64(len(bs.records)) + 1
	} else {
		policyDead = bs.truncBefore
		retain := defaultRetain
		if bs.retainSet {
			retain = bs.retain
		}
		if retain > 0 && bs.published > retain {
			if v := bs.published - retain + 1; v > policyDead {
				policyDead = v
			}
		}
		if policyDead > bs.published {
			policyDead = bs.published
		}
	}

	// The frontier never passes a live pin: a pinned snapshot keeps
	// every page it can reach, which is exactly "no version >= the pin's
	// own view boundary dies". Once the pin releases (or its lease
	// expires), the next scan finishes the advance. Expired leases stop
	// clamping but keep their entry: deleting it here would let the
	// stale holder's eventual Unpin steal a reference from a fresh pin
	// on the same version. Entries are pruned only once the frontier
	// passes them (new pins below the frontier are refused, so a late
	// Unpin of a pruned pin is a harmless no-op).
	effective := policyDead
	for v, p := range bs.pins {
		if now.After(p.expires) {
			continue
		}
		if v < effective {
			effective = v
		}
	}
	if effective < policyDead {
		from := effective
		if bs.frontier > from {
			from = bs.frontier
		}
		if policyDead > from {
			blocked = policyDead - from
		}
	}

	from := bs.frontier
	if from < 1 {
		from = 1
	}
	if effective <= from {
		return effective, blocked, false
	}
	return effective, blocked, true
}

// buildReclaimLocked constructs the collector work item for a frontier
// advance to `to`. Caller holds bs.mu and must call it BEFORE applying
// the frontier record (a tombstoning advance drops the record arrays).
func (bs *blobState) buildReclaimLocked(id, to uint64) *BlobReclaim {
	from := bs.frontier
	if from < 1 {
		from = 1
	}
	maxVer := to
	if maxVer > uint64(len(bs.records)) {
		maxVer = uint64(len(bs.records))
	}
	return &BlobReclaim{
		Blob:     id,
		PageSize: bs.pageSize,
		Deleted:  bs.deleted && to == uint64(len(bs.records))+1,
		From:     from,
		To:       to,
		// Zero-copy share of the record prefix: write records are
		// written once at assignment and never mutated, and appends
		// never touch indices below maxVer, so encoding this slice
		// outside the lock is race-free — the scan holds bs.mu for
		// O(1) regardless of history length. The full prefix ships
		// (rather than just (From, To]) so every scan item is
		// self-contained: a collector restart — or a scan response
		// lost to a timeout after the frontier advanced (the one leak
		// window of the mark-first design) — costs at most the lost
		// window's pages, never a corrupted reclaim of later windows.
		Records: bs.records[:maxVer:maxVer],
	}
}

//
// Checkpoint snapshots.
//

// encodeBlobSnapshot serializes one BLOB's decided state for a journal
// checkpoint. asOf is the journal sequence the snapshot covers: replay
// skips any journal record for this BLOB with Seq <= asOf. In-flight
// seals persist as pending (the sealed record lands only after the hole
// metadata commits); waiters, pins and assignment timestamps are soft
// and not persisted.
func encodeBlobSnapshot(id uint64, bs *blobState, asOf uint64) []byte {
	b := wire.AppendUvarint(nil, asOf)
	b = wire.AppendUvarint(b, id)
	b = wire.AppendUvarint(b, bs.pageSize)
	b = wire.AppendUvarint(b, bs.published)
	b = wire.AppendUvarint(b, bs.retain)
	b = wire.AppendBool(b, bs.retainSet)
	b = wire.AppendUvarint(b, bs.truncBefore)
	b = wire.AppendBool(b, bs.deleted)
	b = wire.AppendUvarint(b, bs.frontier)
	b = wire.AppendUvarint(b, uint64(len(bs.records)))
	for i := range bs.records {
		b = appendWriteRecord(b, bs.records[i])
		b = wire.AppendUvarint(b, bs.sizes[i])
		s := bs.status[i]
		if s == vsSealing {
			s = vsPending
		}
		b = wire.AppendUvarint(b, uint64(s))
	}
	return b
}

func decodeBlobSnapshot(data []byte, now time.Time) (id uint64, bs *blobState, asOf uint64, err error) {
	r := wire.NewReader(data)
	asOf = r.Uvarint()
	id = r.Uvarint()
	bs = &blobState{
		pageSize: r.Uvarint(),
		waiters:  make(map[uint64][]chan struct{}),
	}
	bs.published = r.Uvarint()
	bs.retain = r.Uvarint()
	bs.retainSet = r.Bool()
	bs.truncBefore = r.Uvarint()
	bs.deleted = r.Bool()
	bs.frontier = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return 0, nil, 0, r.Err()
	}
	for i := uint64(0); i < n; i++ {
		bs.records = append(bs.records, decodeWriteRecord(r))
		bs.sizes = append(bs.sizes, r.Uvarint())
		bs.status = append(bs.status, vstatus(r.Uvarint()))
		bs.assignedAt = append(bs.assignedAt, now)
	}
	return id, bs, asOf, r.Err()
}
