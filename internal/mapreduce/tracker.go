package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"blobseer/internal/dfs"
	"blobseer/internal/rpc"
	"blobseer/internal/shuffle"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// SvcShuffle is the tasktracker's map-output service name.
const SvcShuffle = "shuffle"

// Shuffle methods.
var (
	ShuffleGet = rpc.M(1, "shuffle.Get")
)

// ErrOutputLost is returned when a reducer asks for a map output the
// tracker no longer has (tracker restarted / output evicted). The
// jobtracker responds by re-executing the map task, like Hadoop.
var ErrOutputLost = errors.New("mapreduce: map output lost")

// ShuffleReq identifies one map output partition.
type ShuffleReq struct {
	Job  uint64
	Map  uint64
	Part uint64
}

// AppendTo implements wire.Marshaler.
func (m *ShuffleReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Job)
	b = wire.AppendUvarint(b, m.Map)
	return wire.AppendUvarint(b, m.Part)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ShuffleReq) DecodeFrom(r *wire.Reader) error {
	m.Job = r.Uvarint()
	m.Map = r.Uvarint()
	m.Part = r.Uvarint()
	return r.Err()
}

// ShuffleResp carries an encoded partition.
type ShuffleResp struct{ Data []byte }

// AppendTo implements wire.Marshaler.
func (m *ShuffleResp) AppendTo(b []byte) []byte { return wire.AppendBytes(b, m.Data) }

// DecodeFrom implements wire.Unmarshaler.
func (m *ShuffleResp) DecodeFrom(r *wire.Reader) error {
	m.Data = r.BytesCopy()
	return r.Err()
}

// outputKey identifies a stored map output partition.
type outputKey struct {
	job  uint64
	m    uint64
	part uint64
}

// TaskTracker executes tasks on one simulated machine. Its file-system
// mount and shuffle service are bound to the machine's host, so all of
// its data traffic is attributed to that host's NIC.
type TaskTracker struct {
	host string
	fs   dfs.FileSystem
	pool *rpc.Pool
	srv  *rpc.Server

	mu      sync.Mutex
	outputs map[outputKey][]byte
	dead    bool
	cancel  context.CancelFunc
	ctx     context.Context

	// segs is the free list of the blob shuffle's segment buffers: a
	// reduce takes one per segment it fetches and gives them all back
	// when it ends, so between jobs a tracker keeps at most the most
	// segment bytes it ever held at once.
	segs transport.Recycler[[]byte]
}

// NewTaskTracker starts a tasktracker on host with the given mount.
func NewTaskTracker(net transport.Network, host string, fs dfs.FileSystem) (*TaskTracker, error) {
	srv, err := rpc.NewServer(net, transport.MakeAddr(host, SvcShuffle))
	if err != nil {
		return nil, err
	}
	//lint:detached the tracker root ctx spans the process, outliving any single job; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	tt := &TaskTracker{
		host:    host,
		fs:      fs,
		pool:    rpc.NewPool(net, transport.MakeAddr(host, "tasktracker")),
		srv:     srv,
		outputs: make(map[outputKey][]byte),
		ctx:     ctx,
		cancel:  cancel,
	}
	srv.Handle(ShuffleGet, tt.handleShuffleGet)
	return tt, nil
}

// Host returns the tracker's machine name.
func (tt *TaskTracker) Host() string { return tt.host }

// ShuffleAddr returns the tracker's map-output endpoint.
func (tt *TaskTracker) ShuffleAddr() transport.Addr {
	return transport.MakeAddr(tt.host, SvcShuffle)
}

// Kill simulates a machine failure: running tasks abort, the shuffle
// service stops answering, and stored map outputs are lost.
func (tt *TaskTracker) Kill() {
	tt.mu.Lock()
	tt.dead = true
	tt.outputs = make(map[outputKey][]byte)
	tt.mu.Unlock()
	tt.cancel()
	tt.srv.Close()
}

// Dead reports whether the tracker has been killed.
func (tt *TaskTracker) Dead() bool {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.dead
}

// Close shuts the tracker down at the end of a run.
func (tt *TaskTracker) Close() error {
	tt.cancel()
	tt.srv.Close()
	tt.segs.Clear()
	return tt.pool.Close()
}

func (tt *TaskTracker) handleShuffleGet(r *wire.Reader) (wire.Marshaler, error) {
	var req ShuffleReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	tt.mu.Lock()
	data, ok := tt.outputs[outputKey{req.Job, req.Map, req.Part}]
	tt.mu.Unlock()
	if !ok {
		return nil, ErrOutputLost
	}
	return &ShuffleResp{Data: data}, nil
}

// storeOutputs records a finished map task's partitions.
func (tt *TaskTracker) storeOutputs(job, mapID uint64, parts [][]byte) error {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.dead {
		return errors.New("mapreduce: tracker is dead")
	}
	for p, data := range parts {
		tt.outputs[outputKey{job, mapID, uint64(p)}] = data
	}
	return nil
}

// dropJobOutputs frees a completed job's intermediate data.
func (tt *TaskTracker) dropJobOutputs(job uint64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for k := range tt.outputs {
		if k.job == job {
			delete(tt.outputs, k)
		}
	}
}

// fetchMapOutput pulls one partition from a peer tracker's shuffle
// service over the network.
func (tt *TaskTracker) fetchMapOutput(ctx context.Context, from transport.Addr, job, mapID, part uint64) ([]byte, error) {
	var resp ShuffleResp
	err := tt.pool.Call(ctx, from, ShuffleGet, &ShuffleReq{Job: job, Map: mapID, Part: part}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// mapScratch is the memory a map task works in and nothing outlives:
// the line buffer its split is read into, the buffer its map keys are
// rendered in, and the record buffers its output is collected, sorted
// and combined in. A task's encoded partitions are copies, so a tracker
// hands the scratch of a finished task — failed or not — to the next.
type mapScratch struct {
	line     []byte
	key      []byte
	out      Emitter // the map function's: one record buffer per partition
	combined Emitter // the combiner's: one record buffer
	values   [][]byte
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

// combine applies a combiner to every group of a sorted partition and
// returns the combined records, sorted, in the scratch's second buffer.
func (sc *mapScratch) combine(part *recordBuffer, combine ReduceFunc) *recordBuffer {
	sc.combined.collect(1)
	for start := 0; start < len(part.index); {
		key := part.key(part.index[start])
		sc.values = sc.values[:0]
		end := start
		for ; end < len(part.index) && bytes.Equal(part.key(part.index[end]), key); end++ {
			sc.values = append(sc.values, part.value(part.index[end]))
		}
		combine(key, sc.values, &sc.combined)
		start = end
	}
	combined := &sc.combined.parts[0]
	combined.sort()
	return combined
}

// runMap executes one map task: read the split, apply the map function
// with modeled compute cost, partition + sort (+ combine), store the
// partitions for the shuffle.
func (tt *TaskTracker) runMap(ctx context.Context, job *jobState, mapID int, split Split) (recordsIn, recordsOut uint64, err error) {
	if tt.Dead() {
		return 0, 0, errors.New("mapreduce: tracker is dead")
	}
	ctx, cancel := mergeCtx(ctx, tt.ctx)
	defer cancel()

	// A pinned split is read at exactly its snapshot version — the
	// job's submit-time pin keeps the version alive, so this open
	// re-pins it for the task's own lifetime and can never find it
	// collected.
	var f dfs.FileReader
	if split.Ver != 0 {
		vfs, ok := dfs.AsVersioned(tt.fs)
		if !ok {
			return 0, 0, fmt.Errorf("map %d: pinned split %s@%d on unversioned mount %s",
				mapID, split.Path, split.Ver, tt.fs.Name())
		}
		f, err = vfs.OpenVersion(ctx, split.Path, split.Ver)
	} else {
		f, err = tt.fs.Open(ctx, split.Path)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("map %d: open %s@%d: %w", mapID, split.Path, split.Ver, err)
	}
	defer f.Close()
	sc := mapScratchPool.Get().(*mapScratch)
	defer mapScratchPool.Put(sc)
	lr, err := newLineReader(f, split, sc.line)
	if err != nil {
		return 0, 0, fmt.Errorf("map %d: position: %w", mapID, err)
	}
	defer func() { sc.line = lr.buf }()

	R := job.conf.NumReducers
	sc.out.collect(R)
	key := append(append(sc.key[:0], split.Path...), ':')
	prefix := len(key)
	cost := costModel{perRecord: job.conf.MapCostPerRecord}
	for {
		off, line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A read that failed halfway is not the end of the split:
			// fail the attempt, or the job commits a short result.
			return 0, 0, fmt.Errorf("map %d: read %s@%d: %w", mapID, split.Path, split.Ver, err)
		}
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		key = strconv.AppendUint(key[:prefix], off, 10)
		job.conf.Map(key, line, &sc.out)
		recordsIn++
		// Modeled compute scales with actual data: empty records (e.g.
		// the newline padding of shared-append blocks) cost nothing.
		if len(line) > 0 {
			cost.tick()
		}
	}
	cost.flush()
	sc.key = key

	encoded := make([][]byte, R)
	for p := range encoded {
		part := &sc.out.parts[p]
		part.sort()
		if job.conf.Combine != nil {
			part = sc.combine(part, job.conf.Combine)
		}
		if job.shuffle != nil {
			// A blob-shuffle partition lives only until AppendMap
			// returns: the providers keep the bytes from then on.
			encoded[p] = part.encode(transport.NewFrame(part.encodedSize()))
		} else {
			// The memory backend serves the partition until the job ends.
			encoded[p] = part.encode(nil)
		}
	}
	recordsOut = sc.out.n
	if job.shuffle != nil {
		// Blob backend: the partitions become concurrent appends to
		// the shared per-partition intermediate BLOBs, through this
		// tracker's own client so the transfers bill this host's NIC.
		src, ok := tt.fs.(shuffle.ClientSource)
		if !ok {
			return 0, 0, fmt.Errorf("map %d: blob shuffle on %s mount", mapID, tt.fs.Name())
		}
		err := job.shuffle.AppendMap(ctx, src.BlobClient(), uint64(mapID), encoded)
		for _, data := range encoded {
			transport.ReleaseFrame(data)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("map %d: %w", mapID, err)
		}
		return recordsIn, recordsOut, nil
	}
	if err := tt.storeOutputs(job.id, uint64(mapID), encoded); err != nil {
		return 0, 0, err
	}
	return recordsIn, recordsOut, nil
}

// mergeCtx derives a context cancelled when either parent is.
func mergeCtx(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := make(chan struct{})
	go func() {
		select {
		case <-b.Done():
			cancel()
		case <-stop:
		}
	}()
	return ctx, func() { close(stop); cancel() }
}
