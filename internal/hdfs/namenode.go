// Package hdfs is the write-once-read-many baseline file system of the
// paper (§2.2): an HDFS-like design with a centralized namenode holding
// the namespace and the block map, datanodes storing fixed-size chunks
// (BlobSeer data providers, block b being the page {Blob: b}), random
// block placement, client-side write buffering of whole chunks,
// whole-chunk readahead, and — crucially for the paper's argument — NO
// append support: "once a file is created, written and closed, the
// data cannot be overwritten or appended to".
//
// The namenode's namespace is an in-memory dfs.Tree, the type BSFS's
// namespace manager journals; an entry holds a file's block list, and
// what is the namenode's own is block allocation, random placement, and
// freeing the blocks a delete or a replacing rename leaves nameless. A
// namenode restart loses every file: unlike Hadoop's, it keeps no edit
// log.
package hdfs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// SvcNamenode is the namenode's service name.
const SvcNamenode = "namenode"

// Namenode methods.
var (
	NNCreate    = rpc.M(1, "nn.Create")
	NNAddBlock  = rpc.M(2, "nn.AddBlock")
	NNComplete  = rpc.M(3, "nn.Complete")
	NNGetBlocks = rpc.M(4, "nn.GetBlocks")
	NNLookup    = rpc.M(5, "nn.Lookup")
	NNList      = rpc.M(6, "nn.List")
	NNRename    = rpc.M(7, "nn.Rename")
	NNDelete    = rpc.M(8, "nn.Delete")
	NNMkdir     = rpc.M(9, "nn.Mkdir")
	NNEntries   = rpc.M(10, "nn.Entries")
)

//
// Messages.
//

// AddBlockReq allocates the next block of an open file.
type AddBlockReq struct {
	Path   string
	Length uint64 // actual bytes in this block
}

// AppendTo implements wire.Marshaler.
func (m *AddBlockReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Path)
	return wire.AppendUvarint(b, m.Length)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AddBlockReq) DecodeFrom(r *wire.Reader) error {
	m.Path = r.String()
	m.Length = r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	var err error
	m.Path, err = dfs.CleanPath(m.Path)
	return err
}

// BlockInfo is the namenode's one record of a block: its id, its
// length and the datanodes holding it. AddBlock answers with it.
type BlockInfo struct {
	ID        uint64
	Length    uint64
	Datanodes []string
}

// AppendTo implements wire.Marshaler.
func (m *BlockInfo) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendUvarint(b, m.Length)
	return wire.AppendStringSlice(b, m.Datanodes)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockInfo) DecodeFrom(r *wire.Reader) error {
	m.ID = r.Uvarint()
	m.Length = r.Uvarint()
	m.Datanodes = r.StringSlice()
	return r.Err()
}

// GetBlocksResp lists a completed file's blocks.
type GetBlocksResp struct {
	Size   uint64
	Blocks []BlockInfo
}

// AppendTo implements wire.Marshaler.
func (m *GetBlocksResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Size)
	b = wire.AppendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		b = m.Blocks[i].AppendTo(b)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *GetBlocksResp) DecodeFrom(r *wire.Reader) error {
	m.Size = r.Uvarint()
	m.Blocks = make([]BlockInfo, r.Count()) // none when the count failed to decode
	for i := range m.Blocks {
		if err := m.Blocks[i].DecodeFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// LookupResp describes a namespace entry.
type LookupResp struct {
	IsDir  bool
	Size   uint64
	Blocks uint64
}

// AppendTo implements wire.Marshaler.
func (m *LookupResp) AppendTo(b []byte) []byte {
	b = wire.AppendBool(b, m.IsDir)
	b = wire.AppendUvarint(b, m.Size)
	return wire.AppendUvarint(b, m.Blocks)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *LookupResp) DecodeFrom(r *wire.Reader) error {
	m.IsDir = r.Bool()
	m.Size = r.Uvarint()
	m.Blocks = r.Uvarint()
	return r.Err()
}

//
// Namenode.
//

// nnEntry is one namespace record. A file's entry changes as its
// blocks are added and it completes, so it is read and changed only
// inside the tree's With.
type nnEntry struct {
	isDir             bool
	blocks            []BlockInfo
	size              uint64
	underConstruction bool
}

// Dir implements dfs.Entry.
func (e *nnEntry) Dir() bool { return e.isDir }

// NamenodeConfig configures placement.
type NamenodeConfig struct {
	// Replicas is the block replication factor (default 1, so the
	// BSFS comparison is replica-for-replica fair).
	Replicas int
	// Seed drives the random placement policy ("HDFS picks random
	// servers to store the data", §2.2).
	Seed int64
}

// Namenode is the centralized metadata server: it holds the whole
// namespace AND every block record — which is exactly why the
// file-count problem hits HDFS-like designs (§1).
type Namenode struct {
	srv  *rpc.Server
	pool *rpc.Pool // to the datanodes, for deleting blocks that lost their name
	cfg  NamenodeConfig
	tree *dfs.Tree[*nnEntry]

	mu        sync.Mutex // over the placement state below
	datanodes []string
	nextBlock uint64
	placement *blob.RandomK
}

// NewNamenode starts a namenode at addr.
func NewNamenode(net transport.Network, addr transport.Addr, cfg NamenodeConfig) (*Namenode, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	tree, err := dfs.OpenTree("", &nnEntry{isDir: true}, nil, nil)
	if err != nil {
		return nil, err
	}
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	nn := &Namenode{
		srv:       srv,
		pool:      rpc.NewPool(net, transport.MakeAddr(addr.Host(), "namenode-client")),
		cfg:       cfg,
		tree:      tree,
		placement: blob.NewRandomK(cfg.Seed),
	}
	srv.Handle(NNCreate, nn.handleCreate)
	srv.Handle(NNAddBlock, nn.handleAddBlock)
	srv.Handle(NNComplete, nn.handleComplete)
	srv.Handle(NNGetBlocks, nn.handleGetBlocks)
	srv.Handle(NNLookup, nn.handleLookup)
	srv.Handle(NNList, nn.handleList)
	srv.Handle(NNRename, nn.handleRename)
	srv.Handle(NNDelete, nn.handleDelete)
	srv.Handle(NNMkdir, nn.handleMkdir)
	srv.Handle(NNEntries, nn.handleEntries)
	return nn, nil
}

// Addr returns the namenode endpoint.
func (nn *Namenode) Addr() transport.Addr { return nn.srv.Addr() }

// Close stops the namenode.
func (nn *Namenode) Close() error {
	err := nn.srv.Close()
	nn.pool.Close()
	return err
}

// Register adds a datanode. Datanodes register in-process, as the
// cluster starts them.
func (nn *Namenode) Register(addr string) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	for _, d := range nn.datanodes {
		if d == addr {
			return
		}
	}
	nn.datanodes = append(nn.datanodes, addr)
}

// freeBlocks deletes blocks that lost their name from the datanodes
// holding them, one batch per datanode. The namespace change that
// orphaned them has already taken effect, so a datanode that fails is
// logged, not reported: its copies stay behind.
func (nn *Namenode) freeBlocks(blocks []BlockInfo) {
	keys := make(map[string][]pagestore.Key)
	for _, blk := range blocks {
		for _, dn := range blk.Datanodes {
			keys[dn] = append(keys[dn], pagestore.Key{Blob: blk.ID})
		}
	}
	if len(keys) == 0 {
		return
	}
	//lint:detached the wire handler surface carries no caller ctx; the 30s deadline bounds the deletes
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for dn, ks := range keys {
		if err := nn.pool.Call(ctx, transport.Addr(dn), blob.ProvDeletePages, &blob.DeletePagesReq{Keys: ks}, nil); err != nil {
			slog.Warn("hdfs: deleting blocks", "blocks", len(ks), "datanode", dn, "err", err)
		}
	}
}

func (nn *Namenode) handleCreate(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if req.Path == "/" {
		return nil, dfs.ErrIsDir
	}
	_, err := nn.tree.Create(req.Path, &nnEntry{underConstruction: true})
	return nil, err
}

func (nn *Namenode) handleAddBlock(r *wire.Reader) (wire.Marshaler, error) {
	var req AddBlockReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	var blk BlockInfo
	err := nn.tree.With(req.Path, func(e *nnEntry) error {
		if e.isDir {
			return dfs.ErrIsDir
		}
		if !e.underConstruction {
			// A closed file took the path of the writer's, which was
			// deleted or moved away: the writer's file is not here.
			return fmt.Errorf("%w: %s", dfs.ErrNotExist, req.Path)
		}
		nn.mu.Lock()
		defer nn.mu.Unlock()
		if len(nn.datanodes) == 0 {
			return errors.New("hdfs: no datanodes registered")
		}
		nn.nextBlock++
		blk = BlockInfo{ID: nn.nextBlock, Length: req.Length}
		// Random placement (§2.2), distinct replicas: the provider
		// manager's random strategy, which never returns when asked for
		// more replicas than there are datanodes.
		replicas := min(nn.cfg.Replicas, len(nn.datanodes))
		for _, i := range nn.placement.Pick(1, replicas, nn.datanodes, nil) {
			blk.Datanodes = append(blk.Datanodes, nn.datanodes[i])
		}
		e.blocks = append(e.blocks, blk)
		e.size += req.Length
		return nil
	})
	return &blk, err
}

func (nn *Namenode) handleComplete(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	return nil, nn.tree.With(req.Path, func(e *nnEntry) error {
		if !e.underConstruction {
			// A closed file or a directory (never under construction)
			// took the path: as in AddBlock, the writer's file is not here.
			return fmt.Errorf("%w: %s", dfs.ErrNotExist, req.Path)
		}
		e.underConstruction = false
		return nil
	})
}

func (nn *Namenode) handleGetBlocks(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	var resp GetBlocksResp
	err := nn.tree.With(req.Path, func(e *nnEntry) error {
		if e.isDir {
			return dfs.ErrIsDir
		}
		if e.underConstruction {
			// §2.2: files "were visible in the file system namespace
			// only after a successful close operation".
			return dfs.ErrUnderConstruction
		}
		// A completed file's blocks never change, so the answer may
		// share them after the lock is gone.
		resp = GetBlocksResp{Size: e.size, Blocks: e.blocks}
		return nil
	})
	return &resp, err
}

func (nn *Namenode) handleLookup(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	var resp LookupResp
	err := nn.tree.With(req.Path, func(e *nnEntry) error {
		resp = LookupResp{IsDir: e.isDir, Size: e.size, Blocks: uint64(len(e.blocks))}
		return nil
	})
	return &resp, err
}

func (nn *Namenode) handleList(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	infos, err := nn.tree.List(req.Path, func(e *nnEntry, fi *dfs.FileInfo) {
		fi.Size, fi.Blocks = e.size, uint64(len(e.blocks))
	})
	return &dfs.ListResp{Infos: infos}, err
}

func (nn *Namenode) handleRename(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathPairReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	_, d, err := nn.tree.Rename(req.Src, req.Dst)
	if d != nil {
		nn.freeBlocks(d.blocks) // the replaced file's blocks have no name left
	}
	return nil, err
}

func (nn *Namenode) handleDelete(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	e, err := nn.tree.Delete(req.Path)
	if e != nil {
		nn.freeBlocks(e.blocks) // they have no name left
	}
	return nil, err
}

func (nn *Namenode) handleMkdir(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	return nil, nn.tree.Mkdir(req.Path)
}

// handleEntries counts namespace entries PLUS block records: the
// namenode keeps the whole block map in memory, so every block of
// every small file weighs on it — the file-count problem.
func (nn *Namenode) handleEntries(r *wire.Reader) (wire.Marshaler, error) {
	var count uint64
	nn.tree.Each(func(_ string, e *nnEntry) { count += 1 + uint64(len(e.blocks)) })
	return &dfs.CountResp{Count: count}, nil
}
