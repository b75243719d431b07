// Package shuffle is the durable map-output store of the Map/Reduce
// framework: the layer between the framework and the BLOB store that
// turns the shuffle — Hadoop's hottest coordination-bound data path —
// into the paper's flagship concurrent-append workload.
//
// Two backends implement the intermediate-data contract:
//
//   - Memory — the classic Hadoop behaviour: each tasktracker keeps its
//     finished map outputs in process memory and serves them over the
//     shuffle RPC; a dead tracker loses its outputs and the jobtracker
//     must re-execute the maps ("map output lost").
//   - Blob — the new subsystem: every map task appends its encoded
//     partition for reducer r to a shared per-partition intermediate
//     BLOB through the pipelined AppendAsync path (nMaps concurrent
//     appenders per BLOB), then publishes a small segment index entry
//     (job, map, offset, length, checksum) so reducers can locate each
//     map's contribution. Published segments are immutable, replicated
//     BlobSeer data: reducers stream them out as they appear — shuffle
//     overlaps the map phase — each page copied straight into the
//     segment, past the page cache, and tracker death never loses
//     intermediate data, so map re-execution becomes a non-event.
//
// The Memory backend lives in internal/mapreduce (it is the trackers'
// RPC store); this package provides the Blob backend: the segment
// Index and the blob-backed Store.
package shuffle

import (
	"fmt"

	"blobseer/internal/blob"
)

// Backend selects a job's intermediate-data store.
type Backend int

// Shuffle backends.
const (
	// Memory: map outputs live in their tracker's process memory and
	// are served over the shuffle RPC (lost when the tracker dies).
	Memory Backend = iota
	// Blob: map outputs are concurrent appends to shared per-partition
	// intermediate BLOBs, durable across tracker death.
	Blob
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Memory:
		return "memory"
	case Blob:
		return "blob"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a flag value to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "memory":
		return Memory, nil
	case "blob":
		return Blob, nil
	default:
		return Memory, fmt.Errorf("shuffle: unknown backend %q (want memory or blob)", s)
	}
}

// ClientSource is the capability a file-system mount must expose for
// the Blob backend: access to the BlobSeer client beneath it. BSFS
// mounts implement it; write-once backends like HDFS do not, which is
// how a blob-shuffle job on HDFS fails with a clear error.
type ClientSource interface {
	BlobClient() *blob.Client
}

// Segment locates one map task's sorted, encoded partition inside a
// per-partition intermediate BLOB. Segments are immutable once
// published: the (version, offset, length) triple addresses bytes that
// BlobSeer will never change.
type Segment struct {
	// Job and Map identify the producing task; Part is the reduce
	// partition (and the index of the intermediate BLOB).
	Job  uint64
	Map  uint64
	Part uint64
	// Off and Len locate the encoded partition inside the BLOB.
	Off uint64
	Len uint64
	// Ver is the BLOB version the append produced; the segment is
	// readable once that version publishes. An empty partition (Len 0)
	// was never appended and has no version.
	Ver uint64
	// Sum is the CRC-32 (IEEE) checksum of the payload.
	Sum uint32
}
