// Package bsfs implements the BlobSeer File System of the paper (§3.2):
// "an additional layer on top of the BlobSeer service ... a centralized
// namespace manager, which is responsible for maintaining a file system
// namespace, and for mapping files to BLOBs", plus the client-side
// caching mechanism that buffers whole blocks, and the primitive that
// exposes page distribution to the Map/Reduce scheduler.
//
// Every file is backed by one BLOB, and appends go to the BLOB (fully
// concurrent thanks to versioning) and nowhere else. That is the one
// departure from §3.2, whose append also updates the file size at the
// namespace manager: a file's size is a property of each published
// snapshot, which the version manager already serves, so the namespace
// manager keeps no copy of it and a writer, once open, never calls it.
package bsfs

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/kvlog"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// SvcNamespace is the namespace manager's service name.
const SvcNamespace = "bsfs-ns"

// Namespace manager methods.
var (
	NSCreate  = rpc.M(1, "ns.Create")
	NSLookup  = rpc.M(2, "ns.Lookup")
	NSList    = rpc.M(4, "ns.List")
	NSRename  = rpc.M(5, "ns.Rename")
	NSDelete  = rpc.M(6, "ns.Delete")
	NSMkdir   = rpc.M(7, "ns.Mkdir")
	NSEntries = rpc.M(8, "ns.Entries")
)

//
// Messages.
//

// CreateReq creates (or opens for append) the file at Path.
type CreateReq struct {
	Path      string
	PageSize  uint64
	Exclusive bool // fail with dfs.ErrExists when the file exists
}

// AppendTo implements wire.Marshaler.
func (m *CreateReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Path)
	b = wire.AppendUvarint(b, m.PageSize)
	return wire.AppendBool(b, m.Exclusive)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *CreateReq) DecodeFrom(r *wire.Reader) error {
	m.Path = r.String()
	m.PageSize = r.Uvarint()
	m.Exclusive = r.Bool()
	return r.Err()
}

// EntryResp is one namespace entry — a directory, or a file's BLOB and
// page size — as the manager keeps it, journals it and answers with it.
// An entry is never modified once stored.
type EntryResp struct {
	Blob     uint64
	PageSize uint64
	IsDir    bool
}

// AppendTo implements wire.Marshaler.
func (m *EntryResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Blob)
	b = wire.AppendUvarint(b, m.PageSize)
	return wire.AppendBool(b, m.IsDir)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *EntryResp) DecodeFrom(r *wire.Reader) error {
	m.Blob = r.Uvarint()
	m.PageSize = r.Uvarint()
	m.IsDir = r.Bool()
	return r.Err()
}

//
// Server.
//

// NamespaceManager is BSFS's centralized namespace manager. It owns the
// file-system tree and the file→BLOB mapping; BLOBs are created through
// the version manager on demand.
//
// With a journal path the namespace is durable: every entry mutation
// (create, mkdir, rename, delete) is persisted to a kvlog store — keyed
// "e/<path>", write-ahead under ns.mu — before it is acknowledged, and
// a restart replays the store into the map. The store is the live
// mapping, not an op log, so replay is a plain scan.
type NamespaceManager struct {
	srv *rpc.Server
	bc  *blob.Client // for creating BLOBs

	mu      sync.Mutex
	entries map[string]*EntryResp
	kv      *kvlog.Store // nil: in-memory namespace
}

// nsCompactThreshold is the journal dead-bytes bound: a rename or a
// delete leaves the old record and a tombstone behind, so a namespace
// that cycles through temporary files (every Map/Reduce job's) churns
// the store, and a restart should not replay that churn.
const nsCompactThreshold = 1 << 20

// NewNamespaceManager starts a namespace manager at addr journaling to
// journalPath (empty = in-memory); bc is used to create one BLOB per
// new file. An existing journal is replayed before the endpoint binds.
func NewNamespaceManager(net transport.Network, addr transport.Addr, bc *blob.Client, journalPath string) (*NamespaceManager, error) {
	ns := &NamespaceManager{
		bc:      bc,
		entries: map[string]*EntryResp{"/": {IsDir: true}},
	}
	if journalPath != "" {
		kv, err := kvlog.Open(journalPath, kvlog.Options{})
		if err != nil {
			return nil, err
		}
		err = kv.Scan(func(key string, value []byte) error {
			if !strings.HasPrefix(key, "e/") {
				return nil
			}
			e := new(EntryResp)
			ns.entries[key[2:]] = e
			return e.DecodeFrom(wire.NewReader(value))
		})
		if err != nil {
			kv.Close()
			return nil, err
		}
		ns.kv = kv
	}
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		if ns.kv != nil {
			ns.kv.Close()
		}
		return nil, err
	}
	ns.srv = srv
	srv.Handle(NSCreate, ns.handleCreate)
	srv.Handle(NSLookup, ns.handleLookup)
	srv.Handle(NSList, ns.handleList)
	srv.Handle(NSRename, ns.handleRename)
	srv.Handle(NSDelete, ns.handleDelete)
	srv.Handle(NSMkdir, ns.handleMkdir)
	srv.Handle(NSEntries, ns.handleEntries)
	return ns, nil
}

// Addr returns the manager's endpoint.
func (ns *NamespaceManager) Addr() transport.Addr { return ns.srv.Addr() }

// JournalOpen reports whether the durable journal still accepts
// operations; an in-memory manager has no journal to lose and reports
// true. The /healthz namespace check watches it.
func (ns *NamespaceManager) JournalOpen() bool {
	if ns.kv == nil {
		return true
	}
	return ns.kv.Open()
}

// EntryCount reports how many namespace records the manager holds.
func (ns *NamespaceManager) EntryCount() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.entries)
}

// MonitorSample reports the manager's live stats in the cluster
// monitor's sample shape.
func (ns *NamespaceManager) MonitorSample() map[string]float64 {
	s := map[string]float64{
		"entries": float64(ns.EntryCount()),
	}
	if ns.kv != nil {
		total, _ := ns.kv.Size()
		s["journal_bytes"] = float64(total)
	}
	return s
}

// Close stops the manager.
func (ns *NamespaceManager) Close() error {
	err := ns.srv.Close()
	if ns.kv != nil {
		ns.mu.Lock()
		cerr := ns.kv.Close()
		ns.mu.Unlock()
		if err == nil {
			err = cerr
		}
	}
	return err
}

// logPutLocked persists path→e write-ahead; on error the caller must
// not mutate the map. Caller holds ns.mu.
func (ns *NamespaceManager) logPutLocked(path string, e *EntryResp) error {
	if ns.kv == nil {
		return nil
	}
	if err := ns.kv.Put("e/"+path, e.AppendTo(nil)); err != nil {
		return err
	}
	ns.maybeCompactLocked()
	return nil
}

// logDeleteLocked removes path's record write-ahead. Caller holds ns.mu.
func (ns *NamespaceManager) logDeleteLocked(path string) error {
	if ns.kv == nil {
		return nil
	}
	if err := ns.kv.Delete("e/" + path); err != nil {
		return err
	}
	ns.maybeCompactLocked()
	return nil
}

func (ns *NamespaceManager) maybeCompactLocked() {
	// Best effort: a failed compaction leaves a bigger but intact journal.
	if _, err := ns.kv.CompactIfDead(nsCompactThreshold); err != nil {
		obs.Log.Warnf("bsfs: namespace journal compaction: %v", err)
	}
}

// mkdirAllLocked creates dir and its ancestors; fails if a path
// component is a file.
func (ns *NamespaceManager) mkdirAllLocked(dir string) error {
	for _, p := range append(dfs.Ancestors(dir), dir) {
		if p == "/" {
			continue
		}
		e, ok := ns.entries[p]
		if !ok {
			d := &EntryResp{IsDir: true}
			if err := ns.logPutLocked(p, d); err != nil {
				return err
			}
			ns.entries[p] = d
			continue
		}
		if !e.IsDir {
			return dfs.ErrNotDir
		}
	}
	return nil
}

func (ns *NamespaceManager) handleCreate(r *wire.Reader) (wire.Marshaler, error) {
	var req CreateReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, dfs.ErrIsDir
	}

	ns.mu.Lock()
	if e, ok := ns.entries[path]; ok {
		defer ns.mu.Unlock()
		if e.IsDir {
			return nil, dfs.ErrIsDir
		}
		if req.Exclusive {
			return nil, dfs.ErrExists
		}
		return e, nil
	}
	if err := ns.mkdirAllLocked(dfs.Parent(path)); err != nil {
		ns.mu.Unlock()
		return nil, err
	}
	ns.mu.Unlock()

	// Create the backing BLOB outside the lock (network I/O).
	//lint:detached the wire handler surface carries no caller ctx; the 30s deadline bounds the create
	ctx, cancel := context.WithTimeout(context.Background(), 30e9)
	bl, err := ns.bc.Create(ctx, req.PageSize)
	cancel()
	if err != nil {
		return nil, err
	}

	ns.mu.Lock()
	if e, ok := ns.entries[path]; ok {
		// Lost a create race; the other BLOB wins. Retire ours through
		// the garbage collector instead of leaking it.
		ns.mu.Unlock()
		ns.deleteBlobDetached(bl.ID())
		if e.IsDir {
			return nil, dfs.ErrIsDir
		}
		if req.Exclusive {
			return nil, dfs.ErrExists
		}
		return e, nil
	}
	// A Delete of the parent may have run while the lock was released:
	// make the parents again, so no entry outlives its directory.
	e := &EntryResp{Blob: bl.ID(), PageSize: req.PageSize}
	err = ns.mkdirAllLocked(dfs.Parent(path))
	if err == nil {
		err = ns.logPutLocked(path, e)
	}
	if err != nil {
		ns.mu.Unlock()
		ns.deleteBlobDetached(bl.ID())
		return nil, err
	}
	ns.entries[path] = e
	ns.mu.Unlock()
	return e, nil
}

// deleteBlobDetached retires a BLOB in the background, on a context
// independent of the triggering request.
func (ns *NamespaceManager) deleteBlobDetached(id uint64) {
	go func() {
		//lint:detached retirement must outlive the request that lost the create race; the 30s deadline bounds it
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := ns.bc.DeleteBlob(ctx, id); err != nil {
			// The BLOB is orphaned until an operator reaps it — worth
			// surfacing.
			obs.Log.Warnf("bsfs: detached retire of blob %d: %v", id, err)
		}
	}()
}

func (ns *NamespaceManager) handleLookup(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	return e, nil
}

func (ns *NamespaceManager) handleList(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	dir, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[dir]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if !e.IsDir {
		return nil, dfs.ErrNotDir
	}
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	var resp dfs.ListResp
	for p, ent := range ns.entries {
		if p == "/" || !strings.HasPrefix(p, prefix) {
			continue
		}
		if strings.ContainsRune(p[len(prefix):], '/') {
			continue // not a direct child
		}
		resp.Infos = append(resp.Infos, dfs.FileInfo{Path: p, IsDir: ent.IsDir})
	}
	sort.Slice(resp.Infos, func(i, j int) bool { return resp.Infos[i].Path < resp.Infos[j].Path })
	return &resp, nil
}

func (ns *NamespaceManager) handleRename(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathPairReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	src, err := dfs.CleanPath(req.Src)
	if err != nil {
		return nil, err
	}
	dst, err := dfs.CleanPath(req.Dst)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[src]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if e.IsDir {
		return nil, dfs.ErrIsDir
	}
	d, replaced := ns.entries[dst]
	if replaced && d.IsDir {
		return nil, dfs.ErrIsDir
	}
	if src == dst {
		return nil, nil // journaling a put then a delete of one path would drop it
	}
	if err := ns.mkdirAllLocked(dfs.Parent(dst)); err != nil {
		return nil, err
	}
	// Journal dst before src: a crash between the two leaves both paths
	// naming the same BLOB (data never lost), and the survivor wins on
	// the next delete/rename of either path.
	if err := ns.logPutLocked(dst, e); err != nil {
		return nil, err
	}
	if err := ns.logDeleteLocked(src); err != nil {
		return nil, err
	}
	delete(ns.entries, src)
	ns.entries[dst] = e
	// The replaced file's BLOB has no name left: retire it, as a delete
	// would, unless it is the renamed file's own.
	if replaced && d.Blob != e.Blob && d.Blob != 0 {
		ns.deleteBlobDetached(d.Blob)
	}
	return nil, nil
}

func (ns *NamespaceManager) handleDelete(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, dfs.ErrInvalidPath
	}
	ns.mu.Lock()
	e, ok := ns.entries[path]
	if !ok {
		ns.mu.Unlock()
		return nil, dfs.ErrNotExist
	}
	isDir, blobID := e.IsDir, e.Blob
	if isDir {
		prefix := path + "/"
		for p := range ns.entries {
			if strings.HasPrefix(p, prefix) {
				ns.mu.Unlock()
				return nil, dfs.ErrNotEmpty
			}
		}
		if err := ns.logDeleteLocked(path); err != nil {
			ns.mu.Unlock()
			return nil, err
		}
		delete(ns.entries, path)
		ns.mu.Unlock()
		return nil, nil
	}
	ns.mu.Unlock()

	// Deleting a file retires its backing BLOB: the version manager
	// marks every version dead and the garbage collector reclaims the
	// pages — dropping the namespace entry alone would leave the data
	// pinned on every provider forever. Retire FIRST (outside the lock),
	// so a failed retirement leaves the entry in place and the caller's
	// retry tries again, instead of leaking an orphaned BLOB behind a
	// half-done delete.
	if blobID != 0 {
		//lint:detached the wire handler surface carries no caller ctx; the 30s deadline bounds the retire
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := ns.bc.DeleteBlob(ctx, blobID); err != nil {
			return nil, err
		}
	}
	ns.mu.Lock()
	// Drop the entry only if it is still the one whose BLOB we retired:
	// a concurrent rename/recreate made a new entry under this path,
	// and that one's BLOB is untouched.
	if cur, ok := ns.entries[path]; ok && cur == e {
		if err := ns.logDeleteLocked(path); err != nil {
			// The BLOB is already retired; the entry stays and the
			// caller's retry re-deletes (DeleteBlob is idempotent).
			ns.mu.Unlock()
			return nil, err
		}
		delete(ns.entries, path)
	}
	ns.mu.Unlock()
	return nil, nil
}

func (ns *NamespaceManager) handleMkdir(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if err := ns.mkdirAllLocked(path); err != nil {
		return nil, err
	}
	return nil, nil
}

func (ns *NamespaceManager) handleEntries(r *wire.Reader) (wire.Marshaler, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return &dfs.CountResp{Count: uint64(len(ns.entries))}, nil
}
