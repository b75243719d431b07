// Package mapreduce is the Hadoop-like Map/Reduce framework of the
// reproduction (§2.2): a jobtracker schedules map and reduce tasks onto
// tasktrackers (one per simulated machine, with a fixed number of task
// slots), map tasks read data-local splits where possible, map outputs
// are partitioned/sorted/combined and served to reducers over the
// (shaped) network, and reducers write job output through one of two
// committers:
//
//   - SeparateFiles — the original Hadoop behaviour: every reducer
//     writes its own temporary part file and renames it into the output
//     directory on success (Figure 1 of the paper);
//   - SharedAppend — the paper's modified framework: every reducer
//     appends its output to one shared file (Figure 2), which only
//     works on a backend with concurrent append support (BSFS).
//
// Divergence from Hadoop noted for reviewers: job coordination
// (jobtracker↔tasktracker control messages) is in-process function
// calls rather than RPC, because Go functions cannot cross a process
// boundary; all DATA movement — split reads, shuffle transfers, output
// writes — goes through the transport layer and is therefore shaped
// and measured like the paper's.
//
// # Records
//
// A record is bytes from the split to the output file; the framework
// builds no string, pair or slice per record.
//
// A map task reads its split into one buffer and hands the map function
// each line, and the key "path:offset" rendered in a second buffer, as
// views: like bufio.Scanner.Bytes they are valid until the call
// returns, and a function that keeps one must copy it. The same holds
// for a combine or reduce function's key, its values and the slice that
// carries them, which the framework refills for the next group. A
// group's values arrive in byte order (bytes.Compare), because runs are
// sorted by key, then value; datajoin's reduce relies on it to find its
// A-tagged and B-tagged values as two adjacent sub-slices.
//
// Output goes to the *Emitter the function is handed. Emit copies the
// record before it returns, so key and value may be cut from scratch the
// caller overwrites at once, and it takes the value in parts so that a
// tagged or joined value is never concatenated first. The emitter is a
// concrete type with a direct method rather than a func value or an
// interface: through either, the variadic slice and the caller's
// scratch would escape to the heap, an object per record again.
//
// Map output is collected per partition in a record buffer — one arena
// of key and value bytes and an index of (offset, key length, value
// length) — sorted in place by comparing raw bytes, combined into a
// second buffer of the same type, and encoded once, into a slice of its
// exact size, as the partition format: a uvarint record count, then per
// record a uvarint-length-prefixed key and a uvarint-length-prefixed
// value. A task's buffers are recycled between a tracker's tasks; the
// encoded partitions, which the shuffle keeps or may still be sending
// when a failed append returns, never are.
//
// A reducer validates each fetched segment whole, allocating nothing
// per record, before it opens its output: a damaged segment fails the
// attempt while there is still nothing in the shared file for the retry
// to duplicate. It then merges the segments in place — a run is a
// segment and a cursor, the group key and values are views of the
// segments — and the reduce side's emitter assembles each output line
// "key<TAB>value<LF>" in one reused buffer and hands it to the record
// writer as one Write.
package mapreduce

import (
	"fmt"
	"time"

	"blobseer/internal/shuffle"
)

// MapFunc processes one input record. For text inputs key is
// "<path>:<offset>" and value is the line. Both are views of the
// task's buffers, valid until the call returns.
type MapFunc func(key, value []byte, out *Emitter)

// ReduceFunc merges all values of one intermediate key. The values
// arrive in byte order; key, the values and the slice that holds them
// are views valid until the call returns.
type ReduceFunc func(key []byte, values [][]byte, out *Emitter)

// OutputMode selects the reduce-output committer.
type OutputMode int

// Output modes.
const (
	// SeparateFiles: one part file per reducer, temp + rename commit.
	SeparateFiles OutputMode = iota
	// SharedAppend: all reducers append to one shared file.
	SharedAppend
)

// String implements fmt.Stringer.
func (m OutputMode) String() string {
	switch m {
	case SeparateFiles:
		return "separate-files"
	case SharedAppend:
		return "shared-append"
	default:
		return fmt.Sprintf("OutputMode(%d)", int(m))
	}
}

// JobConf describes one Map/Reduce job.
type JobConf struct {
	Name string

	// Input files (text, newline-delimited records).
	Input []string
	// OutputDir receives part files (SeparateFiles) or the single
	// shared file (SharedAppend).
	OutputDir string

	Map     MapFunc
	Combine ReduceFunc // optional map-side pre-aggregation
	Reduce  ReduceFunc

	NumReducers int
	OutputMode  OutputMode

	// Shuffle selects the intermediate-data backend. Memory (the zero
	// value) is classic Hadoop: trackers keep map outputs in process
	// memory and a dead tracker's outputs force map re-execution. Blob
	// stores every map output partition as a concurrent append to a
	// shared per-partition intermediate BLOB: reducers start fetching
	// while maps still run (shuffle overlaps the map phase) and
	// tracker death never loses intermediate data. Blob requires a
	// BlobSeer-backed mount.
	Shuffle shuffle.Backend

	// ShufflePageSize is the page size of the Blob backend's
	// intermediate BLOBs; zero uses the file system's block size. A
	// segment is appended as the bytes it is: one that begins mid-page
	// stores a fragment of its page slot, so nothing is padded and the
	// page size sets only how many pages a segment spans.
	ShufflePageSize uint64

	// KeepIntermediate opts out of the job-end cleanup that retires the
	// Blob backend's intermediate BLOBs through the garbage collector.
	// Debugging aid: kept BLOBs let a post-mortem re-read the raw
	// shuffle segments, at the cost of storage that nothing reclaims.
	KeepIntermediate bool

	// MapsDoneHook, when set, runs synchronously at the map/reduce
	// barrier: all maps have finished, and no reduce is past it yet —
	// a memory-shuffle reduce has not been scheduled, a blob-shuffle
	// reduce has not been told its partition is complete. Tests and
	// experiments use it to inject faults at a deterministic point —
	// e.g. killing a tracker the moment its map outputs become
	// shuffle-only.
	MapsDoneHook func()

	// SplitSize is the map input split size in bytes; zero uses the
	// file system's block size (Hadoop's default: one mapper per
	// chunk).
	SplitSize uint64

	// Modeled per-record compute cost, standing in for the real CPU
	// work of the paper's applications ("data join is a computation-
	// intensive application", §4.3). Zero means no modeled cost.
	MapCostPerRecord    time.Duration
	ReduceCostPerRecord time.Duration

	// MaxAttempts bounds task re-execution (default 4, like Hadoop).
	MaxAttempts int
}

// SharedOutputName is the single output file of SharedAppend jobs.
const SharedOutputName = "part-all"

// JobResult summarizes a completed job.
type JobResult struct {
	Duration time.Duration
	// MapPhase is the time until the last map finished (and reduces
	// could start); ReducePhase is the remainder.
	MapPhase    time.Duration
	ReducePhase time.Duration

	MapTasks    int
	ReduceTasks int
	// LocalMaps counts map tasks that ran on a host holding a replica
	// of their split (the jobtracker "will use it to execute tasks on
	// datanodes in such way as to achieve load balancing", §2.2).
	LocalMaps int

	// InputBytes is the total bytes covered by the job's splits. When
	// inputs were pinned (see InputVersions) it equals the input sizes
	// at the pinned snapshots: a job submitted mid-append processes
	// exactly the bytes that existed at submit, no matter how far
	// concurrent appenders grow the files during the run.
	InputBytes uint64

	// InputVersions maps each input file to the snapshot version the
	// job pinned at submit. Nil when the backend has no versioned
	// access (HDFS) and the job read latest, the pre-snapshot
	// behaviour.
	InputVersions map[string]uint64

	MapInputRecords     uint64
	MapOutputRecords    uint64
	ShuffleBytes        uint64
	ReduceOutputRecords uint64
	OutputBytes         uint64

	// OutputFiles lists the committed output paths: NumReducers files
	// for SeparateFiles, exactly one for SharedAppend.
	OutputFiles []string

	// TaskFailures counts task attempts that failed and were retried.
	TaskFailures int

	// MapOutputsLost counts map tasks re-queued because a reducer
	// could not fetch their output (the memory shuffle backend's "map
	// output lost" path; always zero with the blob backend, whose
	// published segments survive tracker death).
	MapOutputsLost int

	// FirstShuffleFetch is when, measured from job start, the first
	// map output was fetched by any reducer (zero if none was). With
	// the blob shuffle backend this lands before MapPhase ends:
	// shuffle overlaps the map phase.
	FirstShuffleFetch time.Duration

	// SegmentsAppended/Fetched/Recovered are the blob shuffle
	// backend's counters: segments appended to the intermediate BLOBs,
	// segments fetched by reducers, and segments fetched after their
	// producing tracker had died — data the memory backend would have
	// lost. All zero under the memory backend.
	SegmentsAppended  uint64
	SegmentsFetched   uint64
	SegmentsRecovered uint64
}

// partitionOf assigns a key to one of n reduce partitions (Hadoop's
// hash partitioner).
func partitionOf(key []byte, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	// Avalanche so short keys spread (same fix as the DHT ring).
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	return int(h % uint32(n))
}

// costModel batches modeled per-record compute into coarse sleeps so
// the Go timer resolution does not distort small per-record costs.
type costModel struct {
	perRecord time.Duration
	pending   int
}

const costBatch = 256

func (c *costModel) tick() {
	if c.perRecord <= 0 {
		return
	}
	c.pending++
	if c.pending >= costBatch {
		time.Sleep(time.Duration(c.pending) * c.perRecord)
		c.pending = 0
	}
}

func (c *costModel) flush() {
	if c.perRecord > 0 && c.pending > 0 {
		time.Sleep(time.Duration(c.pending) * c.perRecord)
		c.pending = 0
	}
}
