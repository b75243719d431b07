package hdfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"

	"blobseer/internal/blob"
	"blobseer/internal/cache"
	"blobseer/internal/dfs"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
)

// Config configures an HDFS client mount.
type Config struct {
	Net      transport.Network
	Host     string
	Namenode transport.Addr
	// BlockSize is the chunk size (64 MB in the paper; tests and
	// experiments scale it down).
	BlockSize uint64
}

// FS is an HDFS mount implementing dfs.FileSystem. Appends are
// rejected (§2.2), which forces the original Hadoop output layout of
// one file per reducer.
type FS struct {
	cfg  Config
	pool *rpc.Pool
}

var _ dfs.FileSystem = (*FS)(nil)

// New returns an HDFS mount.
func New(cfg Config) *FS {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64 << 20
	}
	return &FS{
		cfg:  cfg,
		pool: rpc.NewPool(cfg.Net, transport.MakeAddr(cfg.Host, "hdfs-client")),
	}
}

// Close releases the mount's connections.
func (fs *FS) Close() error { return fs.pool.Close() }

// Name implements dfs.FileSystem.
func (fs *FS) Name() string { return "hdfs" }

// BlockSize implements dfs.FileSystem.
func (fs *FS) BlockSize() uint64 { return fs.cfg.BlockSize }

// Create implements dfs.FileSystem. The file is invisible to readers
// until the writer closes it (write-once-read-many).
func (fs *FS) Create(ctx context.Context, path string) (dfs.FileWriter, error) {
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNCreate, &dfs.PathReq{Path: path}, nil); err != nil {
		return nil, err
	}
	return &fileWriter{ctx: ctx, fs: fs, path: path, buf: make([]byte, 0, fs.cfg.BlockSize)}, nil
}

// Append implements dfs.FileSystem: HDFS has no append (§2.2 — "the
// data cannot be overwritten or appended to"; append support "was
// disabled" upstream). This is the paper's premise.
func (fs *FS) Append(ctx context.Context, path string) (dfs.FileWriter, error) {
	return nil, dfs.ErrAppendNotSupported
}

// Open implements dfs.FileSystem.
func (fs *FS) Open(ctx context.Context, path string) (dfs.FileReader, error) {
	var resp GetBlocksResp
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNGetBlocks, &dfs.PathReq{Path: path}, &resp); err != nil {
		return nil, err
	}
	return &fileReader{ctx: ctx, fs: fs, path: path, meta: resp}, nil
}

// Stat implements dfs.FileSystem.
func (fs *FS) Stat(ctx context.Context, path string) (dfs.FileInfo, error) {
	var resp LookupResp
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNLookup, &dfs.PathReq{Path: path}, &resp); err != nil {
		return dfs.FileInfo{}, err
	}
	clean, err := dfs.CleanPath(path)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	return dfs.FileInfo{Path: clean, IsDir: resp.IsDir, Size: resp.Size, Blocks: resp.Blocks}, nil
}

// List implements dfs.FileSystem.
func (fs *FS) List(ctx context.Context, dir string) ([]dfs.FileInfo, error) {
	var resp dfs.ListResp
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNList, &dfs.PathReq{Path: dir}, &resp); err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// Rename implements dfs.FileSystem (the committer's temp→final move).
func (fs *FS) Rename(ctx context.Context, src, dst string) error {
	return fs.pool.Call(ctx, fs.cfg.Namenode, NNRename, &dfs.PathPairReq{Src: src, Dst: dst}, nil)
}

// Delete implements dfs.FileSystem.
func (fs *FS) Delete(ctx context.Context, path string) error {
	return fs.pool.Call(ctx, fs.cfg.Namenode, NNDelete, &dfs.PathReq{Path: path}, nil)
}

// Mkdir implements dfs.FileSystem.
func (fs *FS) Mkdir(ctx context.Context, path string) error {
	return fs.pool.Call(ctx, fs.cfg.Namenode, NNMkdir, &dfs.PathReq{Path: path}, nil)
}

// BlockLocations implements dfs.FileSystem ("HDFS provides the
// information about the location of each chunk", §2.2).
func (fs *FS) BlockLocations(ctx context.Context, path string, off, length uint64) ([]dfs.BlockLoc, error) {
	var resp GetBlocksResp
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNGetBlocks, &dfs.PathReq{Path: path}, &resp); err != nil {
		return nil, err
	}
	var out []dfs.BlockLoc
	var cur uint64
	for _, blk := range resp.Blocks {
		blkEnd := cur + blk.Length
		if blkEnd > off && cur < off+length {
			hosts := make([]string, 0, len(blk.Datanodes))
			for _, d := range blk.Datanodes {
				hosts = append(hosts, transport.Addr(d).Host())
			}
			out = append(out, dfs.BlockLoc{Offset: cur, Length: blk.Length, Hosts: hosts})
		}
		cur = blkEnd
	}
	return out, nil
}

// MetadataEntries implements dfs.FileSystem: namespace entries plus
// block records, all of which live in the single namenode.
func (fs *FS) MetadataEntries(ctx context.Context) (uint64, error) {
	var resp dfs.CountResp
	if err := fs.pool.Call(ctx, fs.cfg.Namenode, NNEntries, nil, &resp); err != nil {
		return 0, err
	}
	return resp.Count, nil
}

//
// Writer: client-side buffering of whole chunks (§2.2: "Clients buffer
// all write operations until the data reaches the size of a chunk").
// A file deleted under its writer frees its blocks at the namenode, but
// the block the writer was putting may land after that; the writer
// learns of the delete from its next AddBlock or its Complete and
// deletes that block again. A writer that dies before either still
// leaves the blocks it put behind.
//

type fileWriter struct {
	ctx    context.Context
	fs     *FS
	path   string
	buf    []byte
	last   BlockInfo // the block put last
	err    error
	closed bool
}

// Write implements io.Writer.
func (w *fileWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed file %s", w.path)
	}
	total := 0
	bs := int(w.fs.cfg.BlockSize)
	for len(p) > 0 {
		space := bs - len(w.buf)
		n := len(p)
		if n > space {
			n = space
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		if len(w.buf) == bs {
			if err := w.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// flush allocates a block at the namenode and writes it to every
// assigned datanode.
func (w *fileWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	var blk BlockInfo
	err := w.fs.pool.Call(w.ctx, w.fs.cfg.Namenode, NNAddBlock,
		&AddBlockReq{Path: w.path, Length: uint64(len(w.buf))}, &blk)
	if err != nil {
		w.err = w.gone(err)
		return w.err
	}
	for _, dn := range blk.Datanodes {
		err := w.fs.pool.Call(w.ctx, transport.Addr(dn), blob.ProvPutPage,
			&blob.PutPageReq{Key: pagestore.Key{Blob: blk.ID}, Data: w.buf}, nil)
		if err != nil {
			w.err = fmt.Errorf("hdfs: block %d to %s: %w", blk.ID, dn, err)
			return w.err
		}
	}
	w.last = blk
	w.buf = w.buf[:0]
	return nil
}

// gone passes on the namenode's answer err. If it says the file is not
// at the writer's path any more, the block put last, which may have
// landed after the namenode freed the file's blocks, is deleted again:
// a datanode deletes a missing block as a no-op. (A file moved away
// under its writer can never complete, so it loses nothing readable.)
func (w *fileWriter) gone(err error) error {
	if !errors.Is(err, dfs.ErrNotExist) {
		return err
	}
	for _, dn := range w.last.Datanodes {
		if derr := w.fs.pool.Call(w.ctx, transport.Addr(dn), blob.ProvDeletePages,
			&blob.DeletePagesReq{Keys: []pagestore.Key{{Blob: w.last.ID}}}, nil); derr != nil {
			slog.Warn("hdfs: deleting a block of a deleted file", "block", w.last.ID, "path", w.path, "datanode", dn, "err", derr)
		}
	}
	return fmt.Errorf("hdfs: writer of %s: %w", w.path, err)
}

// Close flushes the tail block and completes the file, making it
// visible to readers.
func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		return err
	}
	return w.gone(w.fs.pool.Call(w.ctx, w.fs.cfg.Namenode, NNComplete, &dfs.PathReq{Path: w.path}, nil))
}

//
// Reader: whole-chunk readahead (§2.2: "when HDFS receives a read
// request for a small block, it prefetches the entire chunk").
//

type fileReader struct {
	ctx  context.Context
	fs   *FS
	path string
	meta GetBlocksResp
	cur  dfs.BlockCursor
}

// Block implements dfs.BlockSource: it gets the chunk holding pos from
// the first of its datanodes that answers, as the pooled frame
// blob.GetPageResp copies it into. The response frame goes back to the
// pool at once, and the chunk's frame once the cursor moves on.
func (r *fileReader) Block(ctx context.Context, pos uint64) (cache.Page, uint64, error) {
	var start uint64
	for _, blk := range r.meta.Blocks {
		if pos >= start+blk.Length {
			start += blk.Length
			continue
		}
		var err error
		for _, dn := range blk.Datanodes {
			var resp blob.GetPageResp
			err = r.fs.pool.Call(ctx, transport.Addr(dn), blob.ProvGetPage,
				&blob.GetPageReq{Key: pagestore.Key{Blob: blk.ID}}, &resp)
			if err == nil {
				return cache.Detached(resp.Data), start, nil
			}
		}
		return cache.Page{}, 0, fmt.Errorf("hdfs: block %d unreadable: %w", blk.ID, err)
	}
	return cache.Page{}, 0, io.EOF
}

// Read implements io.Reader.
func (r *fileReader) Read(p []byte) (int, error) { return r.cur.Read(r.ctx, r, p) }

// ReadAt implements io.ReaderAt through the same one-chunk readahead
// cache as Read, so sub-chunk sequential ReadAt patterns fetch every
// chunk once.
func (r *fileReader) ReadAt(p []byte, off int64) (int, error) {
	return r.cur.ReadAt(r.ctx, r, p, off)
}

// Close implements io.Closer: it releases the held chunk, and the
// reader reads nothing more.
func (r *fileReader) Close() error {
	r.cur.Close()
	return nil
}

// Size implements dfs.FileReader.
func (r *fileReader) Size() uint64 { return r.meta.Size }

// Refresh implements dfs.FileReader. Completed HDFS files cannot grow,
// but re-fetching the block map keeps the interface uniform.
func (r *fileReader) Refresh(ctx context.Context) (uint64, error) {
	var resp GetBlocksResp
	if err := r.fs.pool.Call(ctx, r.fs.cfg.Namenode, NNGetBlocks, &dfs.PathReq{Path: r.path}, &resp); err != nil {
		return 0, err
	}
	r.meta = resp
	return r.meta.Size, nil
}
