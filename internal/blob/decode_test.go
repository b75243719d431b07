package blob

import (
	"testing"

	"blobseer/internal/pagestore"
	"blobseer/internal/segtree"
	"blobseer/internal/wire"
)

// FuzzCountPrefixedDecode: the messages that carry a count-prefixed
// list are bytes off the wire, and DeletePagesReq is decoded by the
// provider server, where a panic kills every service in the process.
// The first byte picks the message; the rest is its frame. Whatever it
// is, decoding must not panic. The 9-byte count 2⁶² that made them
// panic in make is in testdata/fuzz.
func FuzzCountPrefixedDecode(f *testing.F) {
	msgs := []func() wire.Message{
		func() wire.Message { return &DeletePagesReq{} },
		func() wire.Message { return &HistoryResp{} },
		func() wire.Message { return &ReclaimScanResp{} },
		func() wire.Message { return &VersionResp{} },
	}
	rec := segtree.WriteRecord{Ver: 2, Off: 1, N: 3, PagesAfter: 4}
	for i, m := range []wire.Message{
		&DeletePagesReq{Keys: []pagestore.Key{{Blob: 1, Version: 2, Index: 3}, {Blob: 1, Version: 2, Index: 4}}},
		&HistoryResp{Infos: []VersionInfo{{Ver: 1, Size: 4096, Pages: 1, Published: true}}},
		&ReclaimScanResp{PinsBlocked: 1, Blobs: []BlobReclaim{{Blob: 1, PageSize: 4096, From: 1, To: 3, Records: []segtree.WriteRecord{rec}}}},
		&VersionResp{Info: VersionInfo{Ver: 2, Size: 8192, Pages: 2}, Records: []segtree.WriteRecord{rec}},
	} {
		f.Add(m.AppendTo([]byte{byte(i)}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := msgs[int(data[0])%len(msgs)]()
		_ = wire.Unmarshal(data[1:], m) // any error is fine; a panic is not
	})
}
