// Package blob implements the BlobSeer data-management service of the
// paper (§3.1): a versioning-based, concurrency-optimized BLOB store.
//
// Architecture (one RPC service per entity, mirroring the original):
//
//   - data providers store pages (provider.go);
//   - the provider manager assigns pages to providers with a pluggable
//     load-balancing strategy, a lease of pages at a time
//     (pmanager.go);
//   - metadata providers form a DHT holding the versioned segment-tree
//     nodes (package dht + mdstore.go);
//   - the version manager assigns version numbers and append offsets,
//     and publishes versions in order (vmanager.go);
//   - the client library runs the decoupled append/write pipeline and
//     serves reads of any published version (client.go);
//   - cluster.go wires a whole in-process deployment together.
//
// The append pipeline is the paper's §3.1.2: pages are written in
// parallel to providers, the version manager serializes only an O(1)
// version-assignment exchange, metadata commits in one batched DHT
// write computed locally (package segtree) and sent beside the pages,
// and versions publish strictly in assignment order.
package blob

import (
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Service names used to build endpoint addresses.
const (
	SvcVersionManager  = "vmanager"
	SvcProviderManager = "pmanager"
	SvcProvider        = "provider"
	SvcMetadata        = "metadata"
)

// Version manager methods.
var (
	VMCreateBlob     = rpc.M(1, "vm.CreateBlob")
	VMAssign         = rpc.M(3, "vm.Assign")
	VMComplete       = rpc.M(4, "vm.Complete")
	VMSeal           = rpc.M(5, "vm.Seal")
	VMGetVersion     = rpc.M(6, "vm.GetVersion")
	VMLatest         = rpc.M(7, "vm.Latest")
	VMWaitPublished  = rpc.M(8, "vm.WaitPublished")
	VMListBlobs      = rpc.M(9, "vm.ListBlobs")
	VMStats          = rpc.M(10, "vm.Stats")
	VMSetRetention   = rpc.M(11, "vm.SetRetention")
	VMTruncateBefore = rpc.M(12, "vm.TruncateBefore")
	VMDeleteBlob     = rpc.M(13, "vm.DeleteBlob")
	VMPin            = rpc.M(14, "vm.Pin")
	VMUnpin          = rpc.M(15, "vm.Unpin")
	VMReclaimScan    = rpc.M(16, "vm.ReclaimScan")
	VMHistory        = rpc.M(17, "vm.History")
)

// Provider manager methods.
var (
	PMAlloc = rpc.M(2, "pm.Alloc")
)

// Provider methods.
var (
	ProvPutPage     = rpc.M(1, "prov.PutPage")
	ProvGetPage     = rpc.M(2, "prov.GetPage")
	ProvDeletePages = rpc.M(4, "prov.DeletePages")
)

// Write kinds for AssignReq.
const (
	KindAppend = 1
	KindWrite  = 2
)

//
// Shared message helpers.
//

func appendWriteRecord(b []byte, w segtree.WriteRecord) []byte {
	b = wire.AppendUvarint(b, w.Ver)
	b = wire.AppendUvarint(b, w.Off)
	b = wire.AppendUvarint(b, w.N)
	b = wire.AppendUvarint(b, w.PagesAfter)
	return wire.AppendUvarint(b, w.Head)
}

func decodeWriteRecord(r *wire.Reader) segtree.WriteRecord {
	var w segtree.WriteRecord
	w.Ver = r.Uvarint()
	w.Off = r.Uvarint()
	w.N = r.Uvarint()
	w.PagesAfter = r.Uvarint()
	w.Head = r.Uvarint()
	return w
}

// appendWriteRecords encodes a list of write records, its length first.
func appendWriteRecords(b []byte, recs []segtree.WriteRecord) []byte {
	b = wire.AppendUvarint(b, uint64(len(recs)))
	for _, w := range recs {
		b = appendWriteRecord(b, w)
	}
	return b
}

// decodeWriteRecords decodes what appendWriteRecords encoded; an empty
// list is nil. A length the frame cannot hold fails on the reader.
func decodeWriteRecords(r *wire.Reader) []segtree.WriteRecord {
	n := r.Count()
	if n == 0 {
		return nil
	}
	recs := make([]segtree.WriteRecord, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		recs = append(recs, decodeWriteRecord(r))
	}
	return recs
}

func appendPageKey(b []byte, k pagestore.Key) []byte {
	b = wire.AppendUvarint(b, k.Blob)
	b = wire.AppendUvarint(b, k.Version)
	b = wire.AppendUvarint(b, k.Index)
	return b
}

func decodePageKey(r *wire.Reader) pagestore.Key {
	var k pagestore.Key
	k.Blob = r.Uvarint()
	k.Version = r.Uvarint()
	k.Index = r.Uvarint()
	return k
}

//
// Version manager messages.
//

// CreateBlobReq creates a BLOB with the given page size.
type CreateBlobReq struct{ PageSize uint64 }

// AppendTo implements wire.Marshaler.
func (m *CreateBlobReq) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.PageSize) }

// DecodeFrom implements wire.Unmarshaler.
func (m *CreateBlobReq) DecodeFrom(r *wire.Reader) error {
	m.PageSize = r.Uvarint()
	return r.Err()
}

// CreateBlobResp returns the new BLOB's id.
type CreateBlobResp struct{ Blob uint64 }

// AppendTo implements wire.Marshaler.
func (m *CreateBlobResp) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.Blob) }

// DecodeFrom implements wire.Unmarshaler.
func (m *CreateBlobResp) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	return r.Err()
}

// BlobRef names a BLOB.
type BlobRef struct{ Blob uint64 }

// AppendTo implements wire.Marshaler.
func (m *BlobRef) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.Blob) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlobRef) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	return r.Err()
}

// VersionInfo describes one version of a BLOB.
type VersionInfo struct {
	Ver       uint64
	Size      uint64 // bytes
	Pages     uint64
	Published bool
	Sealed    bool
}

// AppendTo implements wire.Marshaler.
func (m *VersionInfo) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Ver)
	b = wire.AppendUvarint(b, m.Size)
	b = wire.AppendUvarint(b, m.Pages)
	b = wire.AppendBool(b, m.Published)
	b = wire.AppendBool(b, m.Sealed)
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *VersionInfo) DecodeFrom(r *wire.Reader) error {
	m.Ver = r.Uvarint()
	m.Size = r.Uvarint()
	m.Pages = r.Uvarint()
	m.Published = r.Bool()
	m.Sealed = r.Bool()
	return r.Err()
}

// AssignReq asks the version manager for a version number. For appends
// the offset is implicit (the size of the last assigned version, §3.1.2
// "the offset is implicitly assumed to be the size of the latest
// version"); for writes the caller supplies Off. SinceVer is the
// highest version whose write record the client already caches; the
// response carries only newer records. Writer is an opaque id the
// client gives each of its writes: an assign that repeats the Writer,
// Kind, Off and Len of a pending version — a retry whose first answer
// was lost — gets that version back. Writer 0 asks for no such match.
type AssignReq struct {
	Blob     uint64
	Kind     uint64 // KindAppend or KindWrite
	Off      uint64 // byte offset, KindWrite only
	Len      uint64 // bytes
	SinceVer uint64
	Writer   uint64
}

// AppendTo implements wire.Marshaler.
func (m *AssignReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	b = wire.AppendUvarint(b, m.Kind)
	b = wire.AppendUvarint(b, m.Off)
	b = wire.AppendUvarint(b, m.Len)
	b = wire.AppendUvarint(b, m.SinceVer)
	return wire.AppendUvarint(b, m.Writer)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AssignReq) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.Kind = r.Uvarint()
	m.Off = r.Uvarint()
	m.Len = r.Uvarint()
	m.SinceVer = r.Uvarint()
	m.Writer = r.Uvarint()
	return r.Err()
}

// AssignResp carries everything a writer needs to finish the write
// without talking to the version manager again (except Complete).
type AssignResp struct {
	Ver       uint64
	Start     uint64 // byte offset where the data lands
	PrevSize  uint64 // size of the previous assigned version
	SizeAfter uint64
	Record    segtree.WriteRecord // page-unit write interval
	History   []segtree.WriteRecord
}

// AppendTo implements wire.Marshaler.
func (m *AssignResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Ver)
	b = wire.AppendUvarint(b, m.Start)
	b = wire.AppendUvarint(b, m.PrevSize)
	b = wire.AppendUvarint(b, m.SizeAfter)
	b = appendWriteRecord(b, m.Record)
	return appendWriteRecords(b, m.History)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AssignResp) DecodeFrom(r *wire.Reader) error {
	m.Ver = r.Uvarint()
	m.Start = r.Uvarint()
	m.PrevSize = r.Uvarint()
	m.SizeAfter = r.Uvarint()
	m.Record = decodeWriteRecord(r)
	m.History = decodeWriteRecords(r)
	return r.Err()
}

// VersionRef names one version of a BLOB.
type VersionRef struct {
	Blob uint64
	Ver  uint64
}

// AppendTo implements wire.Marshaler.
func (m *VersionRef) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	return wire.AppendUvarint(b, m.Ver)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *VersionRef) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.Ver = r.Uvarint()
	return r.Err()
}

// GetVersionReq asks for one version's info and, like AssignReq, for
// the write records of the versions in (SinceVer, Ver] the caller
// lacks; SinceVer = Ver asks for none. Pin asks the same question and
// also takes a lease on the version: while the lease is live the
// version cannot be collected.
type GetVersionReq struct {
	Blob     uint64
	Ver      uint64
	SinceVer uint64
}

// AppendTo implements wire.Marshaler.
func (m *GetVersionReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	b = wire.AppendUvarint(b, m.Ver)
	return wire.AppendUvarint(b, m.SinceVer)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *GetVersionReq) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.Ver = r.Uvarint()
	m.SinceVer = r.Uvarint()
	return r.Err()
}

// VersionResp answers GetVersion and Pin: the version's info, then the
// write records of the versions in (SinceVer, Ver] the caller lacks.
type VersionResp struct {
	Info    VersionInfo
	Records []segtree.WriteRecord
}

// AppendTo implements wire.Marshaler.
func (m *VersionResp) AppendTo(b []byte) []byte {
	return appendWriteRecords(m.Info.AppendTo(b), m.Records)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *VersionResp) DecodeFrom(r *wire.Reader) error {
	if err := m.Info.DecodeFrom(r); err != nil {
		return err
	}
	m.Records = decodeWriteRecords(r)
	return r.Err()
}

// ListBlobsResp lists all BLOB ids.
type ListBlobsResp struct{ Blobs []uint64 }

// AppendTo implements wire.Marshaler.
func (m *ListBlobsResp) AppendTo(b []byte) []byte { return wire.AppendUint64Slice(b, m.Blobs) }

// DecodeFrom implements wire.Unmarshaler.
func (m *ListBlobsResp) DecodeFrom(r *wire.Reader) error {
	m.Blobs = r.Uint64Slice()
	return r.Err()
}

// VMStatsResp reports version-manager counters for tests and tools.
type VMStatsResp struct {
	Blobs     uint64
	Assigned  uint64
	Published uint64
	Sealed    uint64
}

// AppendTo implements wire.Marshaler.
func (m *VMStatsResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blobs)
	b = wire.AppendUvarint(b, m.Assigned)
	b = wire.AppendUvarint(b, m.Published)
	b = wire.AppendUvarint(b, m.Sealed)
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *VMStatsResp) DecodeFrom(r *wire.Reader) error {
	m.Blobs = r.Uvarint()
	m.Assigned = r.Uvarint()
	m.Published = r.Uvarint()
	m.Sealed = r.Uvarint()
	return r.Err()
}

//
// Lifecycle / garbage-collection messages.
//

// SetRetentionReq sets a per-BLOB retention override: keep the latest
// Retain published versions (older ones become collectable). Retain 0
// keeps every version. The override shadows the manager's default.
type SetRetentionReq struct {
	Blob   uint64
	Retain uint64
}

// AppendTo implements wire.Marshaler.
func (m *SetRetentionReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	return wire.AppendUvarint(b, m.Retain)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *SetRetentionReq) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.Retain = r.Uvarint()
	return r.Err()
}

// HistoryReq asks the version manager to enumerate a BLOB's published
// versions still inside the retention window. Limit, when non-zero,
// bounds the response to the newest Limit versions.
type HistoryReq struct {
	Blob  uint64
	Limit uint64
}

// AppendTo implements wire.Marshaler.
func (m *HistoryReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	return wire.AppendUvarint(b, m.Limit)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *HistoryReq) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.Limit = r.Uvarint()
	return r.Err()
}

// HistoryResp lists the published versions of one BLOB that are still
// readable (at or above the collection frontier), oldest first.
// Versions publish strictly in assignment order, so position in the
// list is publish order.
type HistoryResp struct {
	Infos []VersionInfo
}

// AppendTo implements wire.Marshaler.
func (m *HistoryResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Infos)))
	for i := range m.Infos {
		b = m.Infos[i].AppendTo(b)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *HistoryResp) DecodeFrom(r *wire.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Infos = make([]VersionInfo, n)
	for i := 0; i < n; i++ {
		if err := m.Infos[i].DecodeFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// BlobReclaim is one BLOB's slice of a reclaim scan: the manager just
// advanced this BLOB's collection frontier from From to To (versions in
// [From, To) died; all versions below To are now collected), and ships
// the write records [1, min(To, assigned)] the collector needs. The
// collector reclaims shadow-driven: each version w in (From, To] kills
// the pages and tree nodes of its latest predecessor on every range w
// wrote, because the snapshots [predecessor, w) that could still see
// them are all dead once the frontier reaches w. Deleted marks the
// scan that finishes a deleted BLOB (To passed its last version and no
// pin remains): the collector then sweeps every remaining page and
// node of the whole history.
type BlobReclaim struct {
	Blob     uint64
	PageSize uint64
	Deleted  bool
	From     uint64
	To       uint64
	Records  []segtree.WriteRecord
}

// AppendTo implements wire.Marshaler.
func (m *BlobReclaim) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	b = wire.AppendUvarint(b, m.PageSize)
	b = wire.AppendBool(b, m.Deleted)
	b = wire.AppendUvarint(b, m.From)
	b = wire.AppendUvarint(b, m.To)
	b = wire.AppendUvarint(b, uint64(len(m.Records)))
	for _, rec := range m.Records {
		b = appendWriteRecord(b, rec)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlobReclaim) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.PageSize = r.Uvarint()
	m.Deleted = r.Bool()
	m.From = r.Uvarint()
	m.To = r.Uvarint()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Records = make([]segtree.WriteRecord, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Records = append(m.Records, decodeWriteRecord(r))
	}
	return r.Err()
}

// ReclaimScanResp is a whole reclaim scan: every BLOB with newly dead
// versions, plus the count of versions a live pin kept alive this scan.
type ReclaimScanResp struct {
	PinsBlocked uint64
	Blobs       []BlobReclaim
}

// AppendTo implements wire.Marshaler.
func (m *ReclaimScanResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.PinsBlocked)
	b = wire.AppendUvarint(b, uint64(len(m.Blobs)))
	for i := range m.Blobs {
		b = m.Blobs[i].AppendTo(b)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ReclaimScanResp) DecodeFrom(r *wire.Reader) error {
	m.PinsBlocked = r.Uvarint()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Blobs = make([]BlobReclaim, n)
	for i := 0; i < n; i++ {
		if err := m.Blobs[i].DecodeFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// DeletePagesReq asks a provider to drop a batch of pages (garbage
// collection). Missing pages are not errors: replication means any
// given provider holds only a subset of a version's pages.
type DeletePagesReq struct {
	Keys []pagestore.Key
}

// AppendTo implements wire.Marshaler.
func (m *DeletePagesReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		b = appendPageKey(b, k)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *DeletePagesReq) DecodeFrom(r *wire.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Keys = make([]pagestore.Key, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Keys = append(m.Keys, decodePageKey(r))
	}
	return r.Err()
}

// DeletePagesResp reports what a delete batch freed.
type DeletePagesResp struct {
	Deleted    uint64 // pages actually present and removed
	BytesFreed uint64
}

// AppendTo implements wire.Marshaler.
func (m *DeletePagesResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Deleted)
	return wire.AppendUvarint(b, m.BytesFreed)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *DeletePagesResp) DecodeFrom(r *wire.Reader) error {
	m.Deleted = r.Uvarint()
	m.BytesFreed = r.Uvarint()
	return r.Err()
}

//
// Provider manager messages.
//

// AllocReq asks for provider assignments for NPages pages, Replicas
// providers each. It names no BLOB and no byte count: a client asks for
// the pages it will write next, before it knows what they will hold.
type AllocReq struct {
	NPages   uint64
	Replicas uint64
}

// AppendTo implements wire.Marshaler.
func (m *AllocReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.NPages)
	return wire.AppendUvarint(b, m.Replicas)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AllocReq) DecodeFrom(r *wire.Reader) error {
	m.NPages = r.Uvarint()
	m.Replicas = r.Uvarint()
	return r.Err()
}

// AllocResp carries, for each page, Replicas provider addresses
// (flattened row-major: page i replica j at [i*Replicas+j]).
type AllocResp struct {
	Replicas  uint64
	Providers []string
}

// AppendTo implements wire.Marshaler.
func (m *AllocResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Replicas)
	return wire.AppendStringSlice(b, m.Providers)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AllocResp) DecodeFrom(r *wire.Reader) error {
	m.Replicas = r.Uvarint()
	m.Providers = r.StringSlice()
	return r.Err()
}

//
// Provider messages.
//

// PutPageReq stores one page.
type PutPageReq struct {
	Key  pagestore.Key
	Data []byte
}

// AppendTo implements wire.Marshaler.
func (m *PutPageReq) AppendTo(b []byte) []byte {
	b = appendPageKey(b, m.Key)
	return wire.AppendBytes(b, m.Data)
}

// EncodedSize implements wire.Sizer.
func (m *PutPageReq) EncodedSize() int { return pageFieldsMax + len(m.Data) }

// DecodeFrom implements wire.Unmarshaler. Data aliases the request
// frame, which the rpc server recycles once the put has been answered:
// the provider's Store.Put makes the one copy that outlives it.
func (m *PutPageReq) DecodeFrom(r *wire.Reader) error {
	m.Key = decodePageKey(r)
	//lint:framealias valid until handlePutPage returns; pagestore.Store.Put copies the page and keeps no reference
	m.Data = r.Bytes()
	return r.Err()
}

// pageFieldsMax bounds what a page message encodes besides the page:
// three uvarints of key and the length prefix.
const pageFieldsMax = 3*10 + 5

// GetPageReq fetches one page.
type GetPageReq struct{ Key pagestore.Key }

// AppendTo implements wire.Marshaler.
func (m *GetPageReq) AppendTo(b []byte) []byte { return appendPageKey(b, m.Key) }

// DecodeFrom implements wire.Unmarshaler.
func (m *GetPageReq) DecodeFrom(r *wire.Reader) error {
	m.Key = decodePageKey(r)
	return r.Err()
}

// GetPageResp carries the page content.
type GetPageResp struct{ Data []byte }

// AppendTo implements wire.Marshaler.
func (m *GetPageResp) AppendTo(b []byte) []byte { return wire.AppendBytes(b, m.Data) }

// EncodedSize implements wire.Sizer.
func (m *GetPageResp) EncodedSize() int { return pageFieldsMax + len(m.Data) }

// DecodeFrom implements wire.Unmarshaler: it copies the page into a
// frame of its own from transport.NewFrame, so Data begins at its
// frame's base and the caller owns it — it hands Data to the page cache
// or to transport.ReleaseFrame when done. A decode into a GetPageResp
// that still holds a page releases that page first, so a fetch that
// moves on to the next replica after a short page leaks nothing.
func (m *GetPageResp) DecodeFrom(r *wire.Reader) error {
	transport.ReleaseFrame(m.Data)
	m.Data = nil
	page := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	m.Data = append(transport.NewFrame(len(page)), page...)
	return nil
}
