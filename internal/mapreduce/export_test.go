package mapreduce

import "blobseer/internal/transport"

// SegmentRecycling returns the accounting of tt's shuffle-segment free
// list.
func (tt *TaskTracker) SegmentRecycling() transport.RecycleStats { return tt.segs.Stats() }
