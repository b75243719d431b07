package shuffle

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

// Index is the concurrent segment directory of one job: map tasks
// publish their segments as they complete, and reducers block on Next
// until the segments of their partition arrive — the mechanism that
// lets shuffle overlap the map phase. Publication is at-most-once per
// map task: re-executed attempts are deduplicated, so every reducer
// consumes exactly one segment per map.
//
// Like the jobtracker's control messages, the index is in-process
// state (Go functions cannot cross a process boundary); all DATA
// movement — the segment appends and fetches — goes through the
// transport layer and is shaped and measured like the paper's.
type Index struct {
	mu        sync.Mutex
	cond      *sync.Cond
	segs      [][]Segment // per partition, publish order
	published map[uint64]bool
	mapCount  int // total map tasks; -1 until the map/reduce barrier
	err       error
}

// NewIndex returns an empty index over the given partition count.
func NewIndex(partitions int) *Index {
	ix := &Index{
		segs:      make([][]Segment, partitions),
		published: make(map[uint64]bool),
		mapCount:  -1,
	}
	ix.cond = sync.NewCond(&ix.mu)
	return ix
}

// Publish registers one map task's segments (one per partition) and
// reports whether the map was new. A duplicate publication — a
// re-executed map attempt whose first attempt already published — is
// dropped whole, so reducers never see a map twice and never see a
// mix of attempts.
func (ix *Index) Publish(mapID uint64, segs []Segment) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.published[mapID] {
		return false
	}
	ix.published[mapID] = true
	for _, s := range segs {
		ix.segs[s.Part] = append(ix.segs[s.Part], s)
	}
	ix.cond.Broadcast()
	return true
}

// SetMapCount records the job's final map-task count, letting reducers
// detect partition completion. The jobtracker calls it at the
// map/reduce barrier, so no reduce finishes before the barrier does.
func (ix *Index) SetMapCount(n int) {
	ix.mu.Lock()
	ix.mapCount = n
	ix.cond.Broadcast()
	ix.mu.Unlock()
}

// Fail poisons the index: blocked and future Next calls return err.
func (ix *Index) Fail(err error) {
	if err == nil {
		return
	}
	ix.mu.Lock()
	if ix.err == nil {
		ix.err = err
	}
	ix.cond.Broadcast()
	ix.mu.Unlock()
}

// Next returns partition part's consumed-th segment in publish order,
// blocking until it is published. ok == false (with nil error) means
// the partition is complete: every map task's segment was consumed.
// Reducers track their own consumed count, so a re-executed reduce
// attempt re-reads its partition from the start.
func (ix *Index) Next(ctx context.Context, part, consumed int) (seg Segment, ok bool, err error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// The common steady state answers without blocking; the context
	// watcher is only spawned once the call actually has to wait.
	var stop chan struct{}
	defer func() {
		if stop != nil {
			close(stop)
		}
	}()
	for {
		if ix.err != nil {
			return Segment{}, false, ix.err
		}
		if err := ctx.Err(); err != nil {
			return Segment{}, false, err
		}
		if consumed < len(ix.segs[part]) {
			return ix.segs[part][consumed], true, nil
		}
		if ix.mapCount >= 0 && consumed >= ix.mapCount {
			return Segment{}, false, nil
		}
		if stop == nil {
			// Wake the cond wait when the caller's context dies; the
			// broadcast happens under the lock, so it cannot slot
			// between the loop's ctx check and the cond.Wait
			// re-release.
			stop = make(chan struct{})
			go func(stop chan struct{}) {
				select {
				case <-ctx.Done():
					ix.mu.Lock()
					ix.cond.Broadcast()
					ix.mu.Unlock()
				case <-stop:
				}
			}(stop)
		}
		ix.cond.Wait()
	}
}

// The process-wide shuffle counters and operation latencies, resolved
// once. A Store counts each distinct segment once, however often
// re-executed reduce attempts re-read it.
var (
	opAppendMap       = metrics.Default.Op("shuffle.append")
	opFetch           = metrics.Default.Op("shuffle.fetch")
	segmentsAppended  = metrics.Default.Counter("shuffle_segments_appended")
	segmentsFetched   = metrics.Default.Counter("shuffle_segments_fetched")
	segmentsRecovered = metrics.Default.Counter("shuffle_segments_recovered")
)

// Store is the blob-backed durable map-output store of one job: one
// intermediate BLOB per reduce partition, appended to concurrently by
// every map task (each partition's bytes as they are: an append that
// begins mid-page stores a fragment of its page slot) and read back by
// reducers, each page copied straight into its segment, past the page
// cache (see Fetch). Published segments live in BlobSeer — replicated,
// immutable, versioned — so a tracker dying after its maps completed
// costs nothing: the segments outlive it.
//
// Intermediate BLOBs live exactly as long as their job, and the job
// owns that lifetime by ordering, not by pins: NewBlobStore opts every
// partition out of retention, so nothing collects a version mid-job,
// and the jobtracker calls Cleanup only once its last task has drained
// (unless the job opts out with KeepIntermediate), retiring the BLOBs
// through the garbage collector so a busy cluster's shuffle traffic
// does not accrete storage forever. A partition BLOB deleted by anyone
// else mid-job is not held off: the reduce attempts that still need it
// fail (see Fetch).
type Store struct {
	*Index
	jobID    uint64
	pageSize uint64
	blobs    []uint64 // partition -> intermediate BLOB id

	fetchMu   sync.Mutex
	fetched   map[segKey]bool // segments fetched at least once
	recovered map[segKey]bool // segments counted as recovered
}

// segKey identifies one segment for per-segment accounting.
type segKey struct{ m, part uint64 }

// NewBlobStore creates one intermediate BLOB per partition through c
// (any client will do — creation is a version-manager call; the data
// flows through each appender's own client).
func NewBlobStore(ctx context.Context, c *blob.Client, jobID uint64, partitions int, pageSize uint64) (*Store, error) {
	if partitions <= 0 {
		return nil, fmt.Errorf("shuffle: partitions must be positive, got %d", partitions)
	}
	if pageSize == 0 {
		return nil, fmt.Errorf("shuffle: page size must be positive")
	}
	st := &Store{
		Index:     NewIndex(partitions),
		jobID:     jobID,
		pageSize:  pageSize,
		blobs:     make([]uint64, 0, partitions),
		fetched:   make(map[segKey]bool),
		recovered: make(map[segKey]bool),
	}
	for p := 0; p < partitions; p++ {
		b, err := c.Create(ctx, pageSize)
		if err != nil {
			return nil, fmt.Errorf("shuffle: create partition %d BLOB: %w", p, err)
		}
		// Opt out of any cluster-default RetainLatest policy: reducers
		// legitimately read EARLY versions late (each map append is a
		// new version, and a re-executed reduce attempt re-reads its
		// partition from segment zero), so retention collecting old
		// versions mid-job would fail fetches at their seg.Ver. The
		// BLOBs' lifecycle is the job's: Cleanup retires them whole.
		if err := b.SetRetention(ctx, 0); err != nil {
			return nil, fmt.Errorf("shuffle: retention opt-out partition %d: %w", p, err)
		}
		st.blobs = append(st.blobs, b.ID())
	}
	return st, nil
}

// Blobs returns the intermediate BLOB ids (one per partition).
func (st *Store) Blobs() []uint64 { return append([]uint64(nil), st.blobs...) }

// Cleanup retires every intermediate BLOB through the garbage
// collector. The jobtracker calls it once the job is over — reducers
// are drained by then, so no fetch can race the delete and the
// partitions' pages are immediately reclaimable. c forgets the BLOBs as
// it deletes them; every other client that read or wrote them still
// caches their versions and tree nodes and should
// PurgeBlob(st.Blobs()...).
func (st *Store) Cleanup(ctx context.Context, c *blob.Client) error {
	var firstErr error
	for _, id := range st.blobs {
		if err := c.DeleteBlob(ctx, id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Segments reports the job's distinct segments so far: published by map
// tasks, fetched by reducers, and served after their producing tracker
// died (MarkRecovered).
func (st *Store) Segments() (appended, fetched, recovered uint64) {
	st.Index.mu.Lock()
	for _, segs := range st.segs {
		appended += uint64(len(segs))
	}
	st.Index.mu.Unlock()
	st.fetchMu.Lock()
	defer st.fetchMu.Unlock()
	return appended, uint64(len(st.fetched)), uint64(len(st.recovered))
}

// AppendMap stores map mapID's encoded partitions (one per reducer):
// every partition's append is launched through the pipelined
// AppendAsync path before any is waited on, so one map keeps R appends
// in flight while nMaps maps do the same against every BLOB — the
// paper's concurrent-append workload, now load-bearing. An empty
// partition appends nothing. Once all appends land, the map's segments
// publish to the index atomically: a reducer sees all of a map's
// segments or none, so a failed map attempt never leaks partial output.
// AppendMap returns only once every append it launched has finished,
// failed or not, so the caller may reuse parts as soon as it returns.
func (st *Store) AppendMap(ctx context.Context, c *blob.Client, mapID uint64, parts [][]byte) error {
	if len(parts) != len(st.blobs) {
		return fmt.Errorf("shuffle: map %d produced %d partitions, store has %d", mapID, len(parts), len(st.blobs))
	}
	start := time.Now()
	defer func() { opAppendMap.RecordDuration(time.Since(start)) }()
	ctx, sp := obs.StartSpan(ctx, "shuffle.appendMap")
	if sp != nil { // guard: varargs boxing allocates even for a nil span
		sp.Annotate("map=%d parts=%d", mapID, len(parts))
	}
	defer func() { sp.End(nil) }()
	segs := make([]Segment, len(parts))
	pending := make([]*blob.PendingWrite, len(parts))
	var err error
	for p, data := range parts {
		segs[p] = Segment{
			Job:  st.jobID,
			Map:  mapID,
			Part: uint64(p),
			Len:  uint64(len(data)),
			Sum:  crc32.ChecksumIEEE(data),
		}
		if len(data) == 0 {
			continue
		}
		b := c.Handle(st.blobs[p], st.pageSize)
		pw, aerr := b.AppendAsync(ctx, [][]byte{data})
		if aerr != nil {
			err = fmt.Errorf("shuffle: append map %d part %d: %w", mapID, p, aerr)
			break
		}
		pending[p] = pw
		segs[p].Off, segs[p].Ver = pw.Result().Start, pw.Result().Ver
	}
	// Every launched append is waited for, whatever failed before it or
	// beside it: its pages are read out of parts until it finishes. A
	// cancelled ctx ends the appends' data paths, not this wait.
	for p, pw := range pending {
		if pw == nil {
			continue
		}
		if _, werr := pw.Wait(context.WithoutCancel(ctx)); werr != nil && err == nil {
			// Already-landed partitions of this attempt stay unpublished
			// garbage in their BLOBs; the retried attempt re-appends.
			err = fmt.Errorf("shuffle: append map %d part %d: %w", mapID, p, werr)
		}
	}
	if err != nil {
		return err
	}
	if st.Publish(mapID, segs) {
		segmentsAppended.Add(uint64(len(segs)))
	}
	return nil
}

// Fetch reads one published segment through c into p, which is
// seg.Len bytes (a reducer's comes from its tracker's free list):
// one vm.WaitPublished, one batched get of the leaves the segment's
// version wrote, the page reads and the checksum. A segment is exactly
// the bytes its version appended, so ReadWritten reads them by address,
// through the client's node cache, and walks no segment tree; its
// version was complete before AppendMap published it, so its leaves are
// final. Each page is copied into p out of its pooled page frame, which
// goes back to the pool, and none enters the page cache: nothing but a
// re-executed reduce reads a segment again.
// WaitPublished is the fetch's one question to the version manager and
// stays even though the index only hands out published segments: it is
// what refuses a collected partition to a client whose caches still hold
// the segment. It takes no pin: the job deletes its partition BLOBs only
// after its last task has drained (see Store), and a BLOB deleted from
// outside fails the fetch with the version manager's typed refusal
// (blob.ErrVersionCollected or blob.ErrBlobNotFound), never with stale or
// short bytes. Each distinct
// segment counts as fetched once: re-executed reduce attempts re-read
// their whole partition, and those re-reads must not inflate the counts.
func (st *Store) Fetch(ctx context.Context, c *blob.Client, seg Segment, p []byte) error {
	start := time.Now()
	defer func() { opFetch.RecordDuration(time.Since(start)) }()
	ctx, sp := obs.StartSpan(ctx, "shuffle.fetch")
	if sp != nil {
		sp.Annotate("map=%d part=%d len=%d", seg.Map, seg.Part, seg.Len)
	}
	defer func() { sp.End(nil) }()
	if seg.Len == 0 { // never appended: there is no version to read
		if st.once(st.fetched, seg) {
			segmentsFetched.Add(1)
		}
		return nil
	}
	b := c.Handle(st.blobs[seg.Part], st.pageSize)
	if _, err := b.WaitPublished(ctx, seg.Ver); err != nil {
		return fmt.Errorf("shuffle: segment map %d part %d not published: %w", seg.Map, seg.Part, err)
	}
	if err := b.ReadWritten(ctx, seg.Ver, seg.Off, p); err != nil {
		return fmt.Errorf("shuffle: read segment map %d part %d: %w", seg.Map, seg.Part, err)
	}
	if sum := crc32.ChecksumIEEE(p); sum != seg.Sum {
		return fmt.Errorf("shuffle: segment map %d part %d checksum mismatch: %08x != %08x", seg.Map, seg.Part, sum, seg.Sum)
	}
	if st.once(st.fetched, seg) {
		segmentsFetched.Add(1)
	}
	return nil
}

// once marks seg in seen and reports whether it was new there.
func (st *Store) once(seen map[segKey]bool, seg Segment) bool {
	key := segKey{seg.Map, seg.Part}
	st.fetchMu.Lock()
	defer st.fetchMu.Unlock()
	first := !seen[key]
	seen[key] = true
	return first
}

// MarkRecovered counts seg as recovered intermediate data — served to
// a reducer after its producing tracker died, the serving a memory
// shuffle could not have made. Each distinct segment counts at most
// once, no matter how many reduce attempts re-read it.
func (st *Store) MarkRecovered(seg Segment) {
	if st.once(st.recovered, seg) {
		segmentsRecovered.Add(1)
	}
}
