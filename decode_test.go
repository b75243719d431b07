package blobseer

import (
	"fmt"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/wire"
)

// TestCountPrefixedDecodersRejectHugeCounts: a decoder that sizes an
// allocation by an element count off the wire must fail on a count the
// frame cannot hold, not panic in make: a panic in a server's decoder
// takes down every service in the process. Each frame is the fields
// before the count, then the count 2⁶² and nothing after it.
func TestCountPrefixedDecodersRejectHugeCounts(t *testing.T) {
	frame := func(before ...uint64) []byte {
		var b []byte
		for _, v := range before {
			b = wire.AppendUvarint(b, v)
		}
		return wire.AppendUvarint(b, 1<<62)
	}
	for _, tc := range []struct {
		msg   wire.Unmarshaler
		frame []byte
	}{
		{&dfs.ListResp{}, frame()},
		{&blob.DeletePagesReq{}, frame()},
		{&blob.HistoryResp{}, frame()},
		{&blob.ListBlobsResp{}, frame()},
		{&blob.ReclaimScanResp{}, frame(0)},
		{&blob.BlobReclaim{}, frame(1, 4096, 0, 1, 2)}, // blob, page size, deleted, from, to
		{&blob.VersionResp{}, frame(1, 4096, 1, 1, 0)}, // version, size, pages, published, sealed
		{&hdfs.GetBlocksResp{}, frame(4096)},
	} {
		name := fmt.Sprintf("%T", tc.msg)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: decode panicked: %v", name, p)
				}
			}()
			if err := wire.Unmarshal(tc.frame, tc.msg); err == nil {
				t.Errorf("%s: decoded a count of 2^62 from %d bytes", name, len(tc.frame))
			}
		}()
	}
}
