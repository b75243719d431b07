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
//
// The manager's tree is a journaled dfs.Tree, the namespace type the
// HDFS baseline's namenode keeps too. What is BSFS's own is the entry
// (a BLOB id and page size), making a new file's BLOB outside the
// tree's lock, and retiring a BLOB once its file's name is gone.
package bsfs

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/metrics"
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
	if err := r.Err(); err != nil {
		return err
	}
	var err error
	m.Path, err = dfs.CleanPath(m.Path)
	return err
}

// EntryResp is one namespace entry — a directory, or a file's BLOB and
// page size — as the manager keeps it in its tree, journals it and
// answers with it. An entry is never modified once stored.
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

// Dir implements dfs.Entry.
func (m *EntryResp) Dir() bool { return m.IsDir }

func decodeEntry(b []byte) (*EntryResp, error) {
	e := new(EntryResp)
	return e, e.DecodeFrom(wire.NewReader(b))
}

//
// Server.
//

// NamespaceManager is BSFS's centralized namespace manager. It owns the
// file-system tree and the file→BLOB mapping; BLOBs are created through
// the version manager on demand.
//
// With a journal path the namespace is durable: the tree writes every
// change (create, mkdir, rename, delete) to a kvlog store before it is
// acknowledged, and a restart replays the store (see dfs.Tree).
type NamespaceManager struct {
	srv  *rpc.Server
	bc   *blob.Client // for creating BLOBs
	tree *dfs.Tree[*EntryResp]
}

// NewNamespaceManager starts a namespace manager at addr journaling to
// journalPath (empty = in-memory); bc is used to create one BLOB per
// new file. An existing journal is replayed before the endpoint binds.
func NewNamespaceManager(net transport.Network, addr transport.Addr, bc *blob.Client, journalPath string) (*NamespaceManager, error) {
	tree, err := dfs.OpenTree(journalPath, &EntryResp{IsDir: true}, (*EntryResp).AppendTo, decodeEntry)
	if err != nil {
		return nil, err
	}
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		tree.Close()
		return nil, err
	}
	ns := &NamespaceManager{srv: srv, bc: bc, tree: tree}
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
	kv := ns.tree.Store()
	return kv == nil || kv.Open()
}

// EntryCount reports how many namespace records the manager holds.
func (ns *NamespaceManager) EntryCount() int {
	n := 0
	ns.tree.Each(func(string, *EntryResp) { n++ })
	return n
}

// MonitorSample reports the manager's live stats to the cluster
// monitor, all of them gauges.
func (ns *NamespaceManager) MonitorSample() metrics.RegistrySnapshot {
	g := map[string]float64{"entries": float64(ns.EntryCount())}
	if kv := ns.tree.Store(); kv != nil {
		total, _ := kv.Size()
		g["journal_bytes"] = float64(total)
	}
	return metrics.RegistrySnapshot{Gauges: g}
}

// Close stops the manager.
func (ns *NamespaceManager) Close() error {
	return errors.Join(ns.srv.Close(), ns.tree.Close())
}

// opened answers a Create that found e at its path.
func opened(e *EntryResp, exclusive bool) (wire.Marshaler, error) {
	if e.IsDir {
		return nil, dfs.ErrIsDir
	}
	if exclusive {
		return nil, dfs.ErrExists
	}
	return e, nil
}

func (ns *NamespaceManager) handleCreate(r *wire.Reader) (wire.Marshaler, error) {
	var req CreateReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if e, err := ns.tree.Lookup(req.Path); err == nil {
		return opened(e, req.Exclusive)
	}
	// Fail a path under a file before making its BLOB.
	if err := ns.tree.Mkdir(dfs.Parent(req.Path)); err != nil {
		return nil, err
	}

	// Create the backing BLOB outside the lock (network I/O).
	//lint:detached the wire handler surface carries no caller ctx; the 30s deadline bounds the create
	ctx, cancel := context.WithTimeout(context.Background(), 30e9)
	bl, err := ns.bc.Create(ctx, req.PageSize)
	cancel()
	if err != nil {
		return nil, err
	}

	// A Delete of the parent may have run meanwhile: Create makes the
	// parents again, so no entry outlives its directory.
	e, err := ns.tree.Create(req.Path, &EntryResp{Blob: bl.ID(), PageSize: req.PageSize})
	if err != nil {
		// Lost a create race (the other BLOB wins) or the journal failed:
		// retire ours through the garbage collector instead of leaking it.
		ns.deleteBlobDetached(bl.ID())
		if errors.Is(err, dfs.ErrExists) {
			return opened(e, req.Exclusive)
		}
		return nil, err
	}
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
			slog.Warn("bsfs: detached retire", "blob", id, "err", err)
		}
	}()
}

func (ns *NamespaceManager) handleLookup(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	return ns.tree.Lookup(req.Path)
}

func (ns *NamespaceManager) handleList(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	infos, err := ns.tree.List(req.Path, nil)
	return &dfs.ListResp{Infos: infos}, err
}

func (ns *NamespaceManager) handleRename(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathPairReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	e, d, err := ns.tree.Rename(req.Src, req.Dst)
	// The replaced file's BLOB has no name left: retire it, as a delete
	// would, unless it is the renamed file's own (a rename cut by a
	// crash leaves two entries naming one BLOB).
	if d != nil && d.Blob != e.Blob && d.Blob != 0 {
		ns.deleteBlobDetached(d.Blob)
	}
	return nil, err
}

func (ns *NamespaceManager) handleDelete(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	e, err := ns.tree.Delete(req.Path)
	if err != nil || e.Blob == 0 {
		return nil, err
	}
	// Deleting a file retires its backing BLOB: the version manager
	// marks every version dead and the garbage collector reclaims the
	// pages — dropping the namespace entry alone would leave the data
	// pinned on every provider forever. The entry goes first, so no
	// concurrent rename can carry it to a name whose BLOB is dead. A
	// failed retirement puts it back, so the caller's retry tries again
	// instead of leaking an orphaned BLOB; if the path was taken
	// meanwhile, the BLOB is retired in the background.
	//lint:detached the wire handler surface carries no caller ctx; the 30s deadline bounds the retire
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ns.bc.DeleteBlob(ctx, e.Blob); err != nil {
		if _, perr := ns.tree.Create(req.Path, e); perr != nil {
			ns.deleteBlobDetached(e.Blob)
		}
		return nil, err
	}
	return nil, nil
}

func (ns *NamespaceManager) handleMkdir(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	return nil, ns.tree.Mkdir(req.Path)
}

func (ns *NamespaceManager) handleEntries(r *wire.Reader) (wire.Marshaler, error) {
	return &dfs.CountResp{Count: uint64(ns.EntryCount())}, nil
}
