// Package hdfs is the write-once-read-many baseline file system of the
// paper (§2.2): an HDFS-like design with a centralized namenode holding
// the namespace and the block map, datanodes storing fixed-size chunks,
// random block placement, client-side write buffering of whole chunks,
// whole-chunk readahead, and — crucially for the paper's argument — NO
// append support: "once a file is created, written and closed, the
// data cannot be overwritten or appended to".
package hdfs

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"blobseer/internal/dfs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Service names.
const (
	SvcNamenode = "namenode"
	SvcDatanode = "datanode"
)

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

// Datanode methods.
var (
	DNPutBlock = rpc.M(1, "dn.PutBlock")
	DNGetBlock = rpc.M(2, "dn.GetBlock")
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
	return r.Err()
}

// AddBlockResp names the new block and its target datanodes.
type AddBlockResp struct {
	BlockID   uint64
	Datanodes []string
}

// AppendTo implements wire.Marshaler.
func (m *AddBlockResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.BlockID)
	return wire.AppendStringSlice(b, m.Datanodes)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *AddBlockResp) DecodeFrom(r *wire.Reader) error {
	m.BlockID = r.Uvarint()
	m.Datanodes = r.StringSlice()
	return r.Err()
}

// BlockInfo describes one block of a file.
type BlockInfo struct {
	ID        uint64
	Length    uint64
	Datanodes []string
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
	for _, blk := range m.Blocks {
		b = wire.AppendUvarint(b, blk.ID)
		b = wire.AppendUvarint(b, blk.Length)
		b = wire.AppendStringSlice(b, blk.Datanodes)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *GetBlocksResp) DecodeFrom(r *wire.Reader) error {
	m.Size = r.Uvarint()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Blocks = make([]BlockInfo, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var blk BlockInfo
		blk.ID = r.Uvarint()
		blk.Length = r.Uvarint()
		blk.Datanodes = r.StringSlice()
		m.Blocks = append(m.Blocks, blk)
	}
	return r.Err()
}

// LookupResp describes a namespace entry.
type LookupResp struct {
	IsDir             bool
	Size              uint64
	Blocks            uint64
	UnderConstruction bool
}

// AppendTo implements wire.Marshaler.
func (m *LookupResp) AppendTo(b []byte) []byte {
	b = wire.AppendBool(b, m.IsDir)
	b = wire.AppendUvarint(b, m.Size)
	b = wire.AppendUvarint(b, m.Blocks)
	return wire.AppendBool(b, m.UnderConstruction)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *LookupResp) DecodeFrom(r *wire.Reader) error {
	m.IsDir = r.Bool()
	m.Size = r.Uvarint()
	m.Blocks = r.Uvarint()
	m.UnderConstruction = r.Bool()
	return r.Err()
}

// BlockRef names one block.
type BlockRef struct{ ID uint64 }

// AppendTo implements wire.Marshaler.
func (m *BlockRef) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.ID) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockRef) DecodeFrom(r *wire.Reader) error {
	m.ID = r.Uvarint()
	return r.Err()
}

// PutBlockReq stores one block on a datanode.
type PutBlockReq struct {
	ID   uint64
	Data []byte
}

// AppendTo implements wire.Marshaler.
func (m *PutBlockReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	return wire.AppendBytes(b, m.Data)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PutBlockReq) DecodeFrom(r *wire.Reader) error {
	m.ID = r.Uvarint()
	m.Data = r.BytesCopy()
	return r.Err()
}

// BlockDataResp carries block content.
type BlockDataResp struct{ Data []byte }

// AppendTo implements wire.Marshaler.
func (m *BlockDataResp) AppendTo(b []byte) []byte { return wire.AppendBytes(b, m.Data) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockDataResp) DecodeFrom(r *wire.Reader) error {
	m.Data = r.BytesCopy()
	return r.Err()
}

//
// Namenode.
//

// nnEntry is one namespace record.
type nnEntry struct {
	isDir             bool
	blocks            []uint64
	blockLens         []uint64
	size              uint64
	underConstruction bool
}

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
	srv *rpc.Server
	cfg NamenodeConfig

	mu        sync.Mutex
	entries   map[string]*nnEntry
	blockLocs map[uint64][]string
	datanodes []string
	nextBlock uint64
	rng       *rand.Rand
}

// NewNamenode starts a namenode at addr.
func NewNamenode(net transport.Network, addr transport.Addr, cfg NamenodeConfig) (*Namenode, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	nn := &Namenode{
		srv:     srv,
		cfg:     cfg,
		entries: map[string]*nnEntry{"/": {isDir: true}},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
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
func (nn *Namenode) Close() error { return nn.srv.Close() }

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

func (nn *Namenode) mkdirAllLocked(dir string) error {
	for _, p := range append(dfs.Ancestors(dir), dir) {
		if p == "/" {
			continue
		}
		e, ok := nn.entries[p]
		if !ok {
			nn.entries[p] = &nnEntry{isDir: true}
			continue
		}
		if !e.isDir {
			return dfs.ErrNotDir
		}
	}
	return nil
}

func (nn *Namenode) handleCreate(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
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
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.entries[path]; ok {
		return nil, dfs.ErrExists
	}
	if err := nn.mkdirAllLocked(dfs.Parent(path)); err != nil {
		return nil, err
	}
	nn.entries[path] = &nnEntry{underConstruction: true}
	return nil, nil
}

func (nn *Namenode) handleAddBlock(r *wire.Reader) (wire.Marshaler, error) {
	var req AddBlockReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if e.isDir {
		return nil, dfs.ErrIsDir
	}
	if !e.underConstruction {
		return nil, errors.New("hdfs: file is closed; HDFS files are write-once")
	}
	if len(nn.datanodes) == 0 {
		return nil, errors.New("hdfs: no datanodes registered")
	}
	nn.nextBlock++
	id := nn.nextBlock
	e.blocks = append(e.blocks, id)
	e.blockLens = append(e.blockLens, req.Length)
	e.size += req.Length

	// Random placement (§2.2), distinct replicas.
	replicas := nn.cfg.Replicas
	if replicas > len(nn.datanodes) {
		replicas = len(nn.datanodes)
	}
	perm := nn.rng.Perm(len(nn.datanodes))[:replicas]
	resp := &AddBlockResp{BlockID: id}
	for _, i := range perm {
		resp.Datanodes = append(resp.Datanodes, nn.datanodes[i])
	}
	// Record placement as part of the block map.
	if nn.blockLocs == nil {
		nn.blockLocs = make(map[uint64][]string)
	}
	nn.blockLocs[id] = resp.Datanodes
	return resp, nil
}

func (nn *Namenode) handleComplete(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	e.underConstruction = false
	return nil, nil
}

func (nn *Namenode) handleGetBlocks(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if e.isDir {
		return nil, dfs.ErrIsDir
	}
	if e.underConstruction {
		// §2.2: files "were visible in the file system namespace only
		// after a successful close operation".
		return nil, dfs.ErrUnderConstruction
	}
	resp := &GetBlocksResp{Size: e.size}
	for i, id := range e.blocks {
		resp.Blocks = append(resp.Blocks, BlockInfo{
			ID:        id,
			Length:    e.blockLens[i],
			Datanodes: nn.blockLocs[id],
		})
	}
	return resp, nil
}

func (nn *Namenode) handleLookup(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	return &LookupResp{
		IsDir:             e.isDir,
		Size:              e.size,
		Blocks:            uint64(len(e.blocks)),
		UnderConstruction: e.underConstruction,
	}, nil
}

func (nn *Namenode) handleList(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	dir, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[dir]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if !e.isDir {
		return nil, dfs.ErrNotDir
	}
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	var resp dfs.ListResp
	for p, ent := range nn.entries {
		if p == "/" || !strings.HasPrefix(p, prefix) {
			continue
		}
		if strings.ContainsRune(p[len(prefix):], '/') {
			continue
		}
		resp.Infos = append(resp.Infos, dfs.FileInfo{
			Path: p, IsDir: ent.isDir, Size: ent.size, Blocks: uint64(len(ent.blocks)),
		})
	}
	sort.Slice(resp.Infos, func(i, j int) bool { return resp.Infos[i].Path < resp.Infos[j].Path })
	return &resp, nil
}

func (nn *Namenode) handleRename(r *wire.Reader) (wire.Marshaler, error) {
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
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[src]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if e.isDir {
		return nil, dfs.ErrIsDir
	}
	d, replaced := nn.entries[dst]
	if replaced && d.isDir {
		return nil, dfs.ErrIsDir
	}
	if err := nn.mkdirAllLocked(dfs.Parent(dst)); err != nil {
		return nil, err
	}
	if replaced && d != e {
		// The replaced file's blocks have no name left, as after a delete.
		for _, id := range d.blocks {
			delete(nn.blockLocs, id)
		}
	}
	delete(nn.entries, src)
	nn.entries[dst] = e
	return nil, nil
}

func (nn *Namenode) handleDelete(r *wire.Reader) (wire.Marshaler, error) {
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
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, ok := nn.entries[path]
	if !ok {
		return nil, dfs.ErrNotExist
	}
	if e.isDir {
		prefix := path + "/"
		for p := range nn.entries {
			if strings.HasPrefix(p, prefix) {
				return nil, dfs.ErrNotEmpty
			}
		}
	}
	for _, id := range e.blocks {
		delete(nn.blockLocs, id)
	}
	delete(nn.entries, path)
	return nil, nil
}

func (nn *Namenode) handleMkdir(r *wire.Reader) (wire.Marshaler, error) {
	var req dfs.PathReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	path, err := dfs.CleanPath(req.Path)
	if err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nil, nn.mkdirAllLocked(path)
}

// handleEntries counts namespace entries PLUS block records: the
// namenode keeps the whole block map in memory, so every block of
// every small file weighs on it — the file-count problem.
func (nn *Namenode) handleEntries(r *wire.Reader) (wire.Marshaler, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	count := uint64(len(nn.entries))
	for _, e := range nn.entries {
		count += uint64(len(e.blocks))
	}
	return &dfs.CountResp{Count: count}, nil
}
