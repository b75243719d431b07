// Package gc is the BLOB lifecycle subsystem the BlobSeer model leaves
// open: versioning makes every append/write publish a new immutable
// snapshot, and nothing ever reclaimed the snapshots that fell out of
// use — "delete" merely dropped a namespace entry while every page
// stayed pinned on every provider forever.
//
// The collector closes that loop with an epoch-style design split
// across the existing services:
//
//   - The version manager owns lifecycle STATE: retention policy
//     (RetainLatest / TruncateBefore / DeleteBlob RPCs), lease-style
//     reader pins, and the reclaim scan that atomically marks dead
//     versions "collected" — after which every read of those versions
//     fails with blob.ErrVersionCollected, and no new pin can land on
//     them. Marking before deleting means a racy reader observes a
//     clean error, never short or stale data.
//   - This package owns lifecycle WORK: from the scan's write-record
//     history it computes which pages and segment-tree nodes are
//     reachable ONLY from dead versions (a page written at dead
//     version v survives while any protected — live or pinned —
//     version still resolves it; it dies once a later write at or
//     below the next protected version shadows it), reads the dead
//     leaves to learn each page's replica providers, and drives
//     batched, per-provider delete queues plus DHT node deletion.
//     Failed provider batches stay queued and retry next pass.
//
// Reachability needs no tree reads: the same write-record algebra that
// lets segtree.Commit build a version's tree without reading other
// versions' metadata (the paper's concurrency trick) also decides
// reachability — version v's node or page covering page range R is
// shadowed at protected version P iff some write in (v, P] intersects
// R, because every resolve from P then descends through the later
// writer's node instead. Page slots stored as fragments (segtree,
// "Fragments") bend that in one place: a version that stored a fragment
// in a slot shadows nothing there — its leaf names the pages behind it —
// and a version that stored a slot prefix shadows the whole chain behind
// it, which segtree.Chain lists from the same write records.
package gc

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/metrics"
	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/segtree"
)

// deleteBatch bounds one provider delete RPC, in keys.
const deleteBatch = 256

// The process-wide collector counters and pass latency, resolved once.
// A pass is counted, and its latency recorded, only when it completes,
// so gc.pass's count and gc_passes agree.
var (
	opPass              = metrics.Default.Op("gc.pass")
	gcPasses            = metrics.Default.Counter("gc_passes")
	gcVersionsCollected = metrics.Default.Counter("gc_versions_collected")
	gcBlobsDeleted      = metrics.Default.Counter("gc_blobs_deleted")
	gcPagesReclaimed    = metrics.Default.Counter("gc_pages_reclaimed")
	gcBytesReclaimed    = metrics.Default.Counter("gc_bytes_reclaimed")
	gcNodesDeleted      = metrics.Default.Counter("gc_nodes_deleted")
	gcPinsBlocked       = metrics.Default.Counter("gc_pins_blocked")
)

// Collector drives reclamation for one deployment. It talks to the
// version manager, metadata DHT, and providers through a regular
// blob.Client, so it deploys anywhere a client can run.
type Collector struct {
	c *blob.Client

	runMu sync.Mutex // serializes passes

	// now is the injected clock behind pass-latency measurement; tests
	// override it for deterministic timings.
	now func() time.Time

	mu      sync.Mutex
	enabled bool
	queues  map[string][]pagestore.Key // provider addr -> pending deletes
	retry   []*reclaimWork             // work items whose metadata I/O failed

	// blobs caches per-BLOB reclaim state across passes: the write
	// records seen so far and the owner index replayed through
	// `processed`. The frontier only moves forward, so each version's
	// shadow walk runs once ever; without the cache every pass would
	// replay the whole history from version 1.
	blobs map[uint64]*blobGCState

	done chan struct{}
	wg   sync.WaitGroup
}

// blobGCState is the collector's memory of one BLOB between passes.
type blobGCState struct {
	recs      []segtree.WriteRecord
	owners    *ownerMap
	processed uint64 // owners reflect versions [1, processed]
}

// reclaimWork is the I/O half of one frontier advance: everything to
// read (dead leaves, for replica locations) and delete. It is derived
// by pure computation over write records, so a failed execution —
// say the metadata DHT was briefly unreachable — can be retried on
// the next pass without recomputing or losing anything; deletions are
// idempotent, so a partially executed item retries whole.
type reclaimWork struct {
	blob      uint64
	leafKeys  []string
	leafPages []pagestore.Key
	deadNodes []string
}

// Report summarizes one reclaim pass.
type Report struct {
	VersionsCollected int
	PagesQueued       int    // garbage pages resolved to providers this pass
	PagesReclaimed    uint64 // pages confirmed deleted by providers
	BytesReclaimed    uint64
	NodesDeleted      int
	PagesUnlocatable  int // garbage pages whose leaf was missing (leaked)
	PinsBlocked       uint64
	ProviderFailures  int // delete batches that failed (kept queued)
	WorkRetries       int // work items whose metadata I/O failed (kept queued)
}

// New returns a running collector over the deployment c talks to. It
// runs one pass per receive from kicks, the version managers' reclaim
// signals (blob.Cluster.ReclaimSignals); a nil kicks leaves every pass
// to RunOnce. The caller keeps ownership of c (Close does not close
// it); c should be a dedicated client so the collector's cache purges
// cannot race real readers' caches.
func New(c *blob.Client, kicks <-chan struct{}) *Collector {
	g := &Collector{
		c:       c,
		now:     time.Now,
		enabled: true,
		queues:  make(map[string][]pagestore.Key),
		blobs:   make(map[uint64]*blobGCState),
		done:    make(chan struct{}),
	}
	g.wg.Add(1)
	go g.loop(kicks)
	return g
}

// SetEnabled toggles collection; while disabled, passes (signalled or
// explicit) are no-ops. Experiments use it for no-GC baselines.
func (g *Collector) SetEnabled(on bool) {
	g.mu.Lock()
	g.enabled = on
	g.mu.Unlock()
}

// Close stops the collector's loop. Pending queue entries are dropped
// (a fresh collector re-derives nothing — those pages leak; production
// deployments run the collector for the cluster's lifetime).
func (g *Collector) Close() {
	select {
	case <-g.done:
	default:
		close(g.done)
	}
	g.wg.Wait()
}

func (g *Collector) loop(kicks <-chan struct{}) {
	defer g.wg.Done()
	for {
		select {
		case <-g.done:
			return
		case <-kicks:
		}
		//lint:detached reclaim passes run on the collector's own goroutine, not a caller RPC; the 1m deadline bounds them
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if _, err := g.RunOnce(ctx); err != nil {
			// The next signal retries; surface the failure instead of
			// silently skipping a reclaim cycle.
			slog.Warn("gc: reclaim pass failed", "err", err)
		}
		cancel()
	}
}

// RunOnce executes one full reclaim pass: scan (the version manager
// marks dead versions collected), reachability diff, provider delete
// batches, metadata node deletion, and cache purge. Passes serialize;
// tests call it directly for deterministic collection points.
func (g *Collector) RunOnce(ctx context.Context) (Report, error) {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	var rep Report

	g.mu.Lock()
	enabled := g.enabled
	g.mu.Unlock()
	if !enabled {
		return rep, nil
	}

	start := g.now()
	ctx, sp := obs.StartSpan(ctx, "gc.pass")
	var passErr error
	defer func() {
		if sp != nil { // guard: varargs boxing allocates even for a nil span
			sp.Annotate("pages=%d bytes=%d", rep.PagesReclaimed, rep.BytesReclaimed)
		}
		sp.End(passErr)
	}()

	scan, err := g.c.ReclaimScan(ctx)
	if err != nil {
		passErr = err
		return rep, err
	}
	rep.PinsBlocked = scan.PinsBlocked
	gcPinsBlocked.Add(scan.PinsBlocked)

	// Retry work whose metadata I/O failed in an earlier pass first:
	// the scan already advanced those frontiers irreversibly, so this
	// queue is the only thing standing between a transient DHT error
	// and a permanent leak.
	g.mu.Lock()
	pending := g.retry
	g.retry = nil
	g.mu.Unlock()
	for _, w := range pending {
		g.executeWork(ctx, w, &rep)
	}

	for i := range scan.Blobs {
		br := &scan.Blobs[i]
		died := int(br.To - br.From)
		rep.VersionsCollected += died
		gcVersionsCollected.Add(uint64(died))
		if br.Deleted {
			gcBlobsDeleted.Add(1)
		}
		// Deriving the work is pure computation over write records and
		// cannot fail; only executing it does I/O and can be retried.
		g.executeWork(ctx, g.computeWork(br), &rep)
	}
	g.flush(ctx, &rep)
	opPass.RecordDuration(g.now().Sub(start))
	gcPasses.Add(1)
	return rep, nil
}

// computeWork turns one BLOB's frontier advance into the set of leaves
// to read and pages/nodes to delete.
//
// The reclaim is shadow-driven: version w's commit created a node for
// exactly every range it shadowed, so walking w's node set and asking
// "who owned this range before w?" enumerates everything whose last
// observers — the snapshots [owner, w) — died when the frontier
// reached w. Each version is shadow-walked exactly once across the
// collector's lifetime (the per-BLOB owner state persists between
// passes), so total reclaim CPU is linear in total metadata written,
// no matter how often scans run.
func (g *Collector) computeWork(br *blob.BlobReclaim) *reclaimWork {
	w := &reclaimWork{blob: br.Blob}

	if br.Deleted {
		// Terminal sweep of a deleted BLOB: every remaining page and
		// node of the whole history goes. Re-deleting what earlier
		// frontier advances already reclaimed is an idempotent no-op.
		recs := br.Records
		for v := uint64(1); v <= uint64(len(recs)); v++ {
			rec := recs[v-1]
			for i := rec.Off; i < rec.Off+rec.N; i++ {
				w.leafKeys = append(w.leafKeys, segtree.LeafKey(br.Blob, v, i))
				w.leafPages = append(w.leafPages, pagestore.Key{Blob: br.Blob, Version: v, Index: i})
			}
			for _, nr := range segtree.VersionNodes(rec, recs[:v-1]) {
				w.deadNodes = append(w.deadNodes, segtree.NodeKey(br.Blob, v, nr.Off, nr.Span))
			}
			g.c.PurgeVersion(br.Blob, v)
		}
		g.mu.Lock()
		delete(g.blobs, br.Blob) // tombstoned at the manager; state is moot
		g.mu.Unlock()
		return w
	}

	g.mu.Lock()
	st := g.blobs[br.Blob]
	if st == nil {
		st = &blobGCState{owners: newOwnerMap(nil)}
		g.blobs[br.Blob] = st
	}
	g.mu.Unlock()
	if len(br.Records) > len(st.recs) {
		st.recs = br.Records
	}
	recs := st.recs
	n := uint64(len(recs))
	st.owners.ensureSpan(maxRootSpan(recs), recs[:min(st.processed, n)])

	// owners answers "which version owned range R just before w" in
	// O(1): it replays writes [1, w) level-aligned, exactly the ranges
	// version trees are built from. The replay resumes where the last
	// pass stopped (from 1 only after a collector restart, where the
	// scan ships the full prefix again).
	var chain [segtree.MaxSlotFragments]segtree.Frag
	for v := st.processed + 1; v <= br.To && v <= n; v++ {
		if v > br.From {
			rec := recs[v-1]
			for _, nr := range segtree.VersionNodes(rec, recs[:v-1]) {
				owner := st.owners.latest(nr.Off, nr.Span)
				if owner == 0 {
					continue // no predecessor: fresh range or hole wrapper
				}
				if nr.Span > 1 {
					// The predecessor's node for this exact range (a missing
					// key — e.g. a smaller-rooted tree — deletes as a no-op).
					w.deadNodes = append(w.deadNodes, segtree.NodeKey(br.Blob, owner, nr.Off, nr.Span))
					continue
				}
				if rec.Head != 0 && nr.Off == rec.Off {
					continue // a fragment: the slot's earlier pages stay part of it
				}
				// A slot prefix shadows the predecessor's page and, when
				// that page is a fragment, the chain behind it.
				for _, f := range segtree.Chain(recs[:owner], nr.Off, chain[:0]) {
					leaf := segtree.LeafKey(br.Blob, f.Ver, nr.Off)
					w.deadNodes = append(w.deadNodes, leaf)
					w.leafKeys = append(w.leafKeys, leaf)
					w.leafPages = append(w.leafPages, pagestore.Key{Blob: br.Blob, Version: f.Ver, Index: nr.Off})
				}
			}
		}
		st.owners.update(v, recs[v-1])
	}
	if to := min(br.To, n); to > st.processed {
		st.processed = to
	}
	for v := br.From; v < br.To; v++ {
		g.c.PurgeVersion(br.Blob, v)
	}
	return w
}

// executeWork runs one work item's I/O: read the dead leaves for
// replica locations, queue the page deletions per provider, delete the
// dead tree nodes. A failure re-queues the whole item for the next
// pass (deletions are idempotent, and leaves are only deleted after
// they have been read, so a retry always still finds what it needs).
func (g *Collector) executeWork(ctx context.Context, w *reclaimWork, rep *Report) {
	if len(w.leafKeys) == 0 && len(w.deadNodes) == 0 {
		return
	}
	fail := func() {
		rep.WorkRetries++
		g.mu.Lock()
		g.retry = append(g.retry, w)
		g.mu.Unlock()
	}
	if len(w.leafKeys) > 0 {
		raws, err := g.c.NodeStore().GetNodes(ctx, w.leafKeys)
		if err != nil {
			fail()
			return
		}
		g.mu.Lock()
		for i, raw := range raws {
			if raw == nil {
				rep.PagesUnlocatable++
				continue
			}
			ref, err := segtree.DecodeLeaf(raw)
			if err != nil || ref.Hole {
				if err != nil {
					slog.Debug("gc: leaf", "key", segtree.FormatKey(w.leafKeys[i]), "err", err)
					rep.PagesUnlocatable++
				}
				continue // holes store no page
			}
			for _, addr := range ref.Providers {
				g.queues[addr] = append(g.queues[addr], w.leafPages[i])
			}
			rep.PagesQueued++
		}
		g.mu.Unlock()
		// The pages are queued; a failure below must not re-read (and
		// re-queue) them on retry.
		w.leafKeys, w.leafPages = nil, nil
	}
	if len(w.deadNodes) > 0 {
		if err := g.c.NodeStore().DeleteNodes(ctx, w.deadNodes); err != nil {
			fail()
			return
		}
		rep.NodesDeleted += len(w.deadNodes)
		gcNodesDeleted.Add(uint64(len(w.deadNodes)))
	}
}

// maxRootSpan returns the root span implied by the largest grid any
// record has seen.
func maxRootSpan(recs []segtree.WriteRecord) uint64 {
	var maxPages uint64
	for _, r := range recs {
		if r.PagesAfter > maxPages {
			maxPages = r.PagesAfter
		}
	}
	return segtree.RootSpan(maxPages)
}

// flush drains the per-provider reclaim queues in bounded batches. A
// failed batch stays queued for the next pass (the provider may be
// down; deletions are idempotent).
func (g *Collector) flush(ctx context.Context, rep *Report) {
	g.mu.Lock()
	addrs := make([]string, 0, len(g.queues))
	for addr := range g.queues {
		addrs = append(addrs, addr)
	}
	g.mu.Unlock()
	sort.Strings(addrs)

	for _, addr := range addrs {
		g.mu.Lock()
		keys := g.queues[addr]
		delete(g.queues, addr)
		g.mu.Unlock()

		for off := 0; off < len(keys); off += deleteBatch {
			end := off + deleteBatch
			if end > len(keys) {
				end = len(keys)
			}
			resp, err := g.c.DeletePages(ctx, addr, keys[off:end])
			if err != nil {
				rep.ProviderFailures++
				slog.Info("gc: delete batch failed", "addr", addr, "requeued", len(keys)-off, "err", err)
				g.mu.Lock()
				g.queues[addr] = append(g.queues[addr], keys[off:]...)
				g.mu.Unlock()
				break
			}
			rep.PagesReclaimed += resp.Deleted
			rep.BytesReclaimed += resp.BytesFreed
			gcPagesReclaimed.Add(resp.Deleted)
			gcBytesReclaimed.Add(resp.BytesFreed)
		}
	}
}

//
// ownerMap: per level-aligned range, the latest version whose write
// intersects it — the predecessor-owner query behind shadow-driven
// reclaim. Version trees are built over exactly these aligned ranges
// (the builder halves from an aligned root), so lookups are exact.
//

type ownerMap struct {
	maxSpan uint64
	levels  map[uint64]map[uint64]uint64 // span -> aligned off -> version
}

func newOwnerMap(recs []segtree.WriteRecord) *ownerMap {
	return &ownerMap{
		maxSpan: maxRootSpan(recs),
		levels:  make(map[uint64]map[uint64]uint64),
	}
}

// ensureSpan grows the index to cover span, re-registering the already
// processed records at the newly added levels only. The grid only
// grows, and each growth doubles the span, so the total replay cost is
// logarithmic in the final grid size.
func (m *ownerMap) ensureSpan(span uint64, replay []segtree.WriteRecord) {
	if span <= m.maxSpan {
		return
	}
	old := m.maxSpan
	m.maxSpan = span
	for _, r := range replay {
		m.updateAbove(r.Ver, r, old)
	}
}

// update records version ver's write interval at every level.
func (m *ownerMap) update(ver uint64, rec segtree.WriteRecord) {
	m.updateAbove(ver, rec, 0)
}

// updateAbove registers the write at every level with span > aboveSpan.
func (m *ownerMap) updateAbove(ver uint64, rec segtree.WriteRecord, aboveSpan uint64) {
	if rec.N == 0 {
		return
	}
	for span := uint64(1); span <= m.maxSpan; span *= 2 {
		if span <= aboveSpan {
			continue
		}
		lvl := m.levels[span]
		if lvl == nil {
			lvl = make(map[uint64]uint64)
			m.levels[span] = lvl
		}
		first := rec.Off / span * span
		last := (rec.Off + rec.N - 1) / span * span
		for off := first; off <= last; off += span {
			lvl[off] = ver
		}
	}
}

// latest returns the most recent recorded version whose write
// intersects the aligned range [off, off+span), or 0.
func (m *ownerMap) latest(off, span uint64) uint64 {
	return m.levels[span][off]
}
