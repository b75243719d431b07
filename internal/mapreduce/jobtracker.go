package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"blobseer/internal/dfs"
	"blobseer/internal/shuffle"
)

// taskStatus is a task's lifecycle state.
type taskStatus int

const (
	tsPending taskStatus = iota
	tsRunning
	tsDone
)

// JobTracker schedules jobs over a set of tasktrackers, preferring
// data-local map assignment ("the scheduler will try to place the
// computation as close as possible to the needed data", §2.2).
type JobTracker struct {
	trackers    []*TaskTracker
	mapSlots    int
	reduceSlots int

	mu      sync.Mutex
	nextJob uint64
}

// NewJobTracker returns a jobtracker over trackers with the given
// per-tracker slot counts (Hadoop's defaults are 2 and 2).
func NewJobTracker(trackers []*TaskTracker, mapSlots, reduceSlots int) *JobTracker {
	if mapSlots <= 0 {
		mapSlots = 2
	}
	if reduceSlots <= 0 {
		reduceSlots = 2
	}
	return &JobTracker{trackers: trackers, mapSlots: mapSlots, reduceSlots: reduceSlots}
}

// jobState is the jobtracker's bookkeeping for one running job.
type jobState struct {
	id   uint64
	conf JobConf
	jt   *JobTracker
	fs   dfs.FileSystem // the submitting client's mount (setup/cleanup)

	// shuffle is the blob-backed durable map-output store (nil for the
	// memory backend); cancel tears down the job context so tasks
	// blocked on intermediate data drain when the job fails.
	shuffle *shuffle.Store
	cancel  context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond

	splits       []Split
	splitsClosed bool

	mapStatus   []taskStatus
	mapAttempts []int
	pendingMaps []int
	mapsDone    int
	mapLoc      map[int]*TaskTracker
	localMaps   int

	reducesStarted bool
	reducesAt      time.Time
	startedAt      time.Time
	reduceStatus   []taskStatus
	reduceAttempts []int
	pendingReduces []int
	reducesDone    int

	mapSlotsUsed    map[*TaskTracker]int
	reduceSlotsUsed map[*TaskTracker]int

	failed   error
	failures int

	recordsIn    uint64
	recordsOut   uint64
	shuffleBytes uint64
	reduceOut    uint64
	outputBytes  uint64

	lostOutputs  int
	firstFetchAt time.Time // first successful shuffle fetch by any reducer
}

// Run executes a job whose splits are computed up front from the
// input files. On a backend with versioned access, each input file's
// snapshot version is pinned at submit: maps read that exact version
// (splits and block locations are resolved at it too), so the job's
// input is immutable even while concurrent appenders keep growing the
// files, and the held pins keep the garbage collector away from the
// snapshots until the job finishes.
func (jt *JobTracker) Run(ctx context.Context, fs dfs.FileSystem, conf JobConf) (JobResult, error) {
	inputs, err := expandInputs(ctx, fs, conf.Input)
	if err != nil {
		return JobResult{}, err
	}
	conf.Input = inputs
	pins, releasePins, err := pinInputs(ctx, fs, inputs)
	if err != nil {
		return JobResult{}, err
	}
	defer releasePins()
	splits, err := computeSplits(ctx, fs, conf.Input, conf.SplitSize, pins)
	if err != nil {
		return JobResult{}, err
	}
	ch := make(chan Split, len(splits))
	for _, s := range splits {
		ch <- s
	}
	close(ch)
	res, err := jt.RunStreaming(ctx, fs, conf, ch)
	if len(pins) > 0 {
		res.InputVersions = make(map[string]uint64, len(pins))
		for path, pin := range pins {
			res.InputVersions[path] = pin.ver
		}
	}
	return res, err
}

// RunStreaming executes a job whose splits arrive on a channel — the
// mechanism behind the pipelined multi-stage execution of §5, where a
// stage's mappers start on data that previous-stage reducers are still
// appending.
func (jt *JobTracker) RunStreaming(ctx context.Context, fs dfs.FileSystem, conf JobConf, splitCh <-chan Split) (JobResult, error) {
	if conf.NumReducers <= 0 {
		return JobResult{}, errors.New("mapreduce: NumReducers must be positive")
	}
	if conf.Map == nil || conf.Reduce == nil {
		return JobResult{}, errors.New("mapreduce: Map and Reduce functions required")
	}
	if conf.MaxAttempts <= 0 {
		conf.MaxAttempts = 4
	}

	jt.mu.Lock()
	jt.nextJob++
	job := &jobState{
		id:              jt.nextJob,
		conf:            conf,
		jt:              jt,
		fs:              fs,
		mapLoc:          make(map[int]*TaskTracker),
		mapSlotsUsed:    make(map[*TaskTracker]int),
		reduceSlotsUsed: make(map[*TaskTracker]int),
	}
	jt.mu.Unlock()
	job.cond = sync.NewCond(&job.mu)

	start := time.Now()
	if err := job.setup(ctx); err != nil {
		return JobResult{}, err
	}
	job.startedAt = start

	// Tasks run on a per-job context cancelled when the job fails, so
	// reducers blocked on intermediate data that will never arrive
	// (e.g. segments of a map that exhausted its attempts) drain
	// instead of wedging the dispatcher.
	jctx, jcancel := context.WithCancel(ctx)
	defer jcancel()
	job.cancel = jcancel

	// Feed splits.
	go func() {
		for s := range splitCh {
			job.mu.Lock()
			id := len(job.splits)
			job.splits = append(job.splits, s)
			job.mapStatus = append(job.mapStatus, tsPending)
			job.mapAttempts = append(job.mapAttempts, 0)
			job.pendingMaps = append(job.pendingMaps, id)
			job.cond.Broadcast()
			job.mu.Unlock()
		}
		job.mu.Lock()
		job.splitsClosed = true
		job.cond.Broadcast()
		job.mu.Unlock()
	}()

	// Abort the dispatcher when the caller's context dies.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			job.fail(fmt.Errorf("mapreduce: job %d: %w", job.id, ctx.Err()))
		case <-stopWatch:
		}
	}()

	job.dispatch(jctx)
	close(stopWatch)

	job.mu.Lock()
	err := job.failed
	mapPhase := time.Duration(0)
	if !job.reducesAt.IsZero() {
		mapPhase = job.reducesAt.Sub(start)
	}
	var inputBytes uint64
	for i := range job.splits {
		inputBytes += job.splits[i].Length
	}
	res := JobResult{
		Duration:            time.Since(start),
		MapPhase:            mapPhase,
		ReducePhase:         time.Since(start) - mapPhase,
		MapTasks:            len(job.splits),
		InputBytes:          inputBytes,
		ReduceTasks:         conf.NumReducers,
		LocalMaps:           job.localMaps,
		MapInputRecords:     job.recordsIn,
		MapOutputRecords:    job.recordsOut,
		ShuffleBytes:        job.shuffleBytes,
		ReduceOutputRecords: job.reduceOut,
		OutputBytes:         job.outputBytes,
		TaskFailures:        job.failures,
		MapOutputsLost:      job.lostOutputs,
	}
	if !job.firstFetchAt.IsZero() {
		res.FirstShuffleFetch = job.firstFetchAt.Sub(start)
	}
	job.mu.Unlock()
	if job.shuffle != nil {
		res.SegmentsAppended, res.SegmentsFetched, res.SegmentsRecovered = job.shuffle.Segments()
	}

	for _, tt := range jt.trackers {
		tt.dropJobOutputs(job.id)
	}
	if job.shuffle != nil && !conf.KeepIntermediate {
		// The job is over (success or failure) and dispatch returned
		// only once every task had drained, so no fetch can race the
		// delete: retire the intermediate BLOBs so shuffle traffic does
		// not accrete storage forever. Detached context: cleanup must
		// run even when the caller's context is what killed the job.
		//lint:detached cleanup must run even when the caller's ctx is what killed the job; the 30s deadline bounds it
		cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
		if cerr := job.shuffle.Cleanup(cctx, fs.(shuffle.ClientSource).BlobClient()); cerr != nil {
			// Leaked intermediate BLOBs accrete storage until an
			// operator reaps them — worth surfacing.
			slog.Warn("mapreduce: shuffle cleanup", "job", job.id, "err", cerr)
		}
		ccancel()
		// The deleting client forgot the BLOBs; the trackers' clients
		// appended and fetched them, and would keep a finished job's
		// write records, version infos and tree nodes, and the pages a
		// compacting append read back, until LRU evicted them (a fetch
		// caches no page).
		blobs := job.shuffle.Blobs()
		for _, tt := range jt.trackers {
			if src, ok := tt.fs.(shuffle.ClientSource); ok && !tt.Dead() {
				src.BlobClient().PurgeBlob(blobs...)
			}
		}
	}
	if err != nil {
		return res, err
	}
	outs, cerr := job.cleanupAndListOutputs(ctx)
	if cerr != nil {
		return res, cerr
	}
	res.OutputFiles = outs
	return res, nil
}

// fail records the first fatal error and wakes everyone.
func (j *jobState) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failLocked(err)
}

// failLocked records the first fatal error, wakes the dispatcher and
// every waiter, poisons the shuffle store so reducers blocked on
// intermediate data return, and cancels the job context so running
// tasks drain.
func (j *jobState) failLocked(err error) {
	if j.failed == nil {
		j.failed = err
	}
	j.cond.Broadcast()
	if j.shuffle != nil {
		j.shuffle.Fail(j.failed)
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// setup validates the output directory, prepares the committer, and
// creates the blob shuffle store's intermediate BLOBs when the job
// asked for the durable backend.
func (j *jobState) setup(ctx context.Context) error {
	// The cheap capability check runs first; BLOB creation runs last,
	// after every validation that can reject the job, so a rejected
	// submission never accretes intermediate BLOBs (which are, by
	// design, not deleted).
	if j.conf.Shuffle == shuffle.Blob {
		if _, ok := j.fs.(shuffle.ClientSource); !ok {
			return fmt.Errorf("mapreduce: shuffle backend %s requires a BlobSeer-backed mount, got %s", j.conf.Shuffle, j.fs.Name())
		}
	}
	if _, err := j.fs.Stat(ctx, j.conf.OutputDir); err == nil {
		return fmt.Errorf("mapreduce: output directory %s already exists", j.conf.OutputDir)
	} else if !errors.Is(err, dfs.ErrNotExist) {
		return err
	}
	if err := j.fs.Mkdir(ctx, j.conf.OutputDir); err != nil {
		return err
	}
	if j.conf.OutputMode == SharedAppend {
		// One shared output file, created up front; every reducer
		// appends to it (Figure 2). On a backend without append
		// support this is where the job fails, which is exactly the
		// paper's point about HDFS.
		w, err := j.fs.Create(ctx, j.conf.OutputDir+"/"+SharedOutputName)
		if err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if w, err = j.fs.Append(ctx, j.conf.OutputDir+"/"+SharedOutputName); err != nil {
			return fmt.Errorf("mapreduce: shared-append output on %s: %w", j.fs.Name(), err)
		}
		if err := w.Close(); err != nil { // the probe's block buffer goes back to the mount
			return err
		}
	}
	if j.conf.Shuffle == shuffle.Blob {
		ps := j.conf.ShufflePageSize
		if ps == 0 {
			ps = j.fs.BlockSize()
		}
		st, err := shuffle.NewBlobStore(ctx, j.fs.(shuffle.ClientSource).BlobClient(), j.id, j.conf.NumReducers, ps)
		if err != nil {
			return fmt.Errorf("mapreduce: shuffle store: %w", err)
		}
		j.shuffle = st
	}
	return nil
}

// dispatch is the scheduling loop: it assigns pending tasks to free
// slots until the job completes or fails.
func (j *jobState) dispatch(ctx context.Context) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.shuffle != nil {
		// Blob shuffle: segments are fetchable the moment each map
		// publishes them, so reducers start immediately and the
		// shuffle overlaps the map phase instead of waiting for the
		// §2.2 barrier.
		j.startReducesLocked()
	}
	for {
		if j.failed != nil {
			// Wait for running tasks to drain so nothing writes after
			// we return.
			if j.runningTasksLocked() == 0 {
				return
			}
			j.cond.Wait()
			continue
		}
		mapsAllDone := j.splitsClosed && j.mapsDone == len(j.splits) && len(j.pendingMaps) == 0
		if mapsAllDone && j.reducesAt.IsZero() {
			// The map/reduce barrier: under the memory backend this is
			// where reduces start (§2.2: "After all the maps have
			// finished, the tasktrackers execute the reduce function");
			// under the blob backend the reduces are already running
			// and this only marks the end of the map phase.
			j.reducesAt = time.Now()
			if hook := j.conf.MapsDoneHook; hook != nil {
				// Run the fault-injection hook outside the lock (it may
				// kill trackers) and before any reduce can pass the
				// barrier — scheduled (memory) or told its partition is
				// complete (blob) — so tests get a deterministic kill
				// point.
				j.mu.Unlock()
				hook()
				j.mu.Lock()
			}
			if j.shuffle != nil {
				// Blob-backend reducers, already running, can now
				// detect when their partition is complete.
				j.shuffle.SetMapCount(len(j.splits))
			} else {
				j.startReducesLocked()
			}
			continue
		}
		if j.reducesStarted && j.reducesDone == j.conf.NumReducers &&
			j.splitsClosed && j.mapsDone == len(j.splits) {
			return
		}
		if !j.tryAssignLocked(ctx) {
			// With work pending, no task running and no tracker alive,
			// waiting would hang forever: fail the job instead.
			if (len(j.pendingMaps) > 0 || len(j.pendingReduces) > 0) &&
				j.runningTasksLocked() == 0 && j.aliveTrackersLocked() == 0 {
				j.failLocked(errors.New("mapreduce: no live tasktrackers"))
				continue
			}
			j.cond.Wait()
		}
	}
}

// startReducesLocked schedules every reduce task.
func (j *jobState) startReducesLocked() {
	j.reducesStarted = true
	j.reduceStatus = make([]taskStatus, j.conf.NumReducers)
	j.reduceAttempts = make([]int, j.conf.NumReducers)
	for r := 0; r < j.conf.NumReducers; r++ {
		j.pendingReduces = append(j.pendingReduces, r)
	}
}

func (j *jobState) aliveTrackersLocked() int {
	n := 0
	for _, tt := range j.jt.trackers {
		if !tt.Dead() {
			n++
		}
	}
	return n
}

func (j *jobState) runningTasksLocked() int {
	n := 0
	for _, used := range j.mapSlotsUsed {
		n += used
	}
	for _, used := range j.reduceSlotsUsed {
		n += used
	}
	return n
}

// tryAssignLocked starts at most one task; reports whether it did.
func (j *jobState) tryAssignLocked(ctx context.Context) bool {
	// Maps first (including re-executions during the reduce phase).
	if len(j.pendingMaps) > 0 {
		// Pass 1: data-local assignment.
		for qi, id := range j.pendingMaps {
			for _, tt := range j.jt.trackers {
				if tt.Dead() || j.mapSlotsUsed[tt] >= j.jt.mapSlots {
					continue
				}
				if hostIn(tt.Host(), j.splits[id].Hosts) {
					j.startMapLocked(ctx, qi, id, tt, true)
					return true
				}
			}
		}
		// Pass 2: non-local, but only for splits no live tracker can
		// serve locally. A split whose replica holder is alive merely
		// has to wait for one of that tracker's slots — they always
		// free — so running it elsewhere would trade permanent remote
		// reads for a momentary scheduling convenience (the fast
		// tracker of the moment would otherwise swallow the whole
		// queue non-locally).
		for qi, id := range j.pendingMaps {
			if j.localTrackerAliveLocked(id) {
				continue
			}
			for _, tt := range j.jt.trackers {
				if tt.Dead() || j.mapSlotsUsed[tt] >= j.jt.mapSlots {
					continue
				}
				j.startMapLocked(ctx, qi, id, tt, false)
				return true
			}
		}
	}
	if j.reducesStarted && len(j.pendingReduces) > 0 {
		for _, tt := range j.jt.trackers {
			if tt.Dead() || j.reduceSlotsUsed[tt] >= j.jt.reduceSlots {
				continue
			}
			r := j.pendingReduces[0]
			j.pendingReduces = j.pendingReduces[1:]
			j.reduceStatus[r] = tsRunning
			j.reduceSlotsUsed[tt]++
			go j.execReduce(ctx, r, tt)
			return true
		}
	}
	return false
}

// localTrackerAliveLocked reports whether any live tracker holds a
// replica of the split's first block.
func (j *jobState) localTrackerAliveLocked(id int) bool {
	for _, tt := range j.jt.trackers {
		if !tt.Dead() && hostIn(tt.Host(), j.splits[id].Hosts) {
			return true
		}
	}
	return false
}

func (j *jobState) startMapLocked(ctx context.Context, queueIdx, id int, tt *TaskTracker, local bool) {
	j.pendingMaps = append(j.pendingMaps[:queueIdx], j.pendingMaps[queueIdx+1:]...)
	j.mapStatus[id] = tsRunning
	j.mapSlotsUsed[tt]++
	// Copy the split under the lock: the feeder goroutine may still be
	// appending to j.splits.
	split := j.splits[id]
	go j.execMap(ctx, id, split, tt, local)
}

func (j *jobState) execMap(ctx context.Context, id int, split Split, tt *TaskTracker, local bool) {
	in, out, err := tt.runMap(ctx, j, id, split)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.mapSlotsUsed[tt]--
	if err != nil {
		j.failures++
		j.mapAttempts[id]++
		if j.mapAttempts[id] >= j.conf.MaxAttempts {
			j.failLocked(fmt.Errorf("mapreduce: map %d failed %d times: %w", id, j.mapAttempts[id], err))
		} else {
			j.mapStatus[id] = tsPending
			j.pendingMaps = append(j.pendingMaps, id)
		}
		j.cond.Broadcast()
		return
	}
	j.mapStatus[id] = tsDone
	j.mapsDone++
	j.mapLoc[id] = tt
	if local {
		j.localMaps++
	}
	j.recordsIn += in
	j.recordsOut += out
	j.cond.Broadcast()
}

func (j *jobState) execReduce(ctx context.Context, r int, tt *TaskTracker) {
	outRecords, outBytes, shuffled, err := tt.runReduce(ctx, j, r)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.reduceSlotsUsed[tt]--
	j.shuffleBytes += shuffled
	if err != nil {
		j.failures++
		j.reduceAttempts[r]++
		if j.reduceAttempts[r] >= j.conf.MaxAttempts {
			j.failLocked(fmt.Errorf("mapreduce: reduce %d failed %d times: %w", r, j.reduceAttempts[r], err))
		} else {
			j.reduceStatus[r] = tsPending
			j.pendingReduces = append(j.pendingReduces, r)
		}
		j.cond.Broadcast()
		return
	}
	j.reduceStatus[r] = tsDone
	j.reducesDone++
	j.reduceOut += outRecords
	j.outputBytes += outBytes
	j.cond.Broadcast()
}

// waitMapLoc blocks until map id's output location is known (it can
// disappear and reappear when outputs are lost and re-executed).
func (j *jobState) waitMapLoc(ctx context.Context, id int) (*TaskTracker, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.failed != nil {
			return nil, j.failed
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if tt, ok := j.mapLoc[id]; ok {
			return tt, nil
		}
		j.cond.Wait()
	}
}

// reportLostOutput re-queues a map whose output a reducer could not
// fetch (Hadoop's "map output lost" recovery).
func (j *jobState) reportLostOutput(id int, from *TaskTracker) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.mapLoc[id] != from {
		return // already re-executed elsewhere
	}
	delete(j.mapLoc, id)
	j.mapsDone--
	j.mapStatus[id] = tsPending
	j.pendingMaps = append(j.pendingMaps, id)
	j.failures++
	j.lostOutputs++
	j.cond.Broadcast()
}

// noteShuffleFetch records a reducer's successful fetch of map id's
// output — the first one timestamps the job's reduce-side start (the
// overlap metric) — and reports whether the producing tracker has
// died, so the blob path can mark the segment as recovered
// intermediate data.
func (j *jobState) noteShuffleFetch(id int) (producerDead bool) {
	j.mu.Lock()
	if j.firstFetchAt.IsZero() {
		j.firstFetchAt = time.Now()
	}
	producer := j.mapLoc[id]
	j.mu.Unlock()
	return producer != nil && producer.Dead()
}

// mapCount returns the final number of map tasks (valid once reduces
// have started: the split stream is closed by then).
func (j *jobState) mapCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.splits)
}

// cleanupAndListOutputs removes temporary attempt files and returns
// the committed output paths.
func (j *jobState) cleanupAndListOutputs(ctx context.Context) ([]string, error) {
	tmpDir := j.conf.OutputDir + "/_temporary"
	if infos, err := j.fs.List(ctx, tmpDir); err == nil {
		for _, fi := range infos {
			if derr := j.fs.Delete(ctx, fi.Path); derr != nil {
				slog.Debug("mapreduce: delete tmp", "job", j.id, "path", fi.Path, "err", derr)
			}
		}
		if derr := j.fs.Delete(ctx, tmpDir); derr != nil {
			slog.Debug("mapreduce: delete tmp dir", "job", j.id, "path", tmpDir, "err", derr)
		}
	}
	infos, err := j.fs.List(ctx, j.conf.OutputDir)
	if err != nil {
		return nil, err
	}
	var outs []string
	for _, fi := range infos {
		if fi.IsDir || strings.HasPrefix(dfs.Base(fi.Path), "_") {
			continue
		}
		outs = append(outs, fi.Path)
	}
	return outs, nil
}

// expandInputs replaces directory inputs with their files (ignoring
// _-prefixed entries, like Hadoop).
func expandInputs(ctx context.Context, fs dfs.FileSystem, inputs []string) ([]string, error) {
	var out []string
	for _, in := range inputs {
		fi, err := fs.Stat(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: input %s: %w", in, err)
		}
		if !fi.IsDir {
			out = append(out, in)
			continue
		}
		infos, err := fs.List(ctx, in)
		if err != nil {
			return nil, err
		}
		for _, e := range infos {
			if e.IsDir || strings.HasPrefix(dfs.Base(e.Path), "_") {
				continue
			}
			out = append(out, e.Path)
		}
	}
	return out, nil
}

func hostIn(host string, hosts []string) bool {
	for _, h := range hosts {
		if h == host {
			return true
		}
	}
	return false
}
