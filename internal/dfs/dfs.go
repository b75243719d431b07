// Package dfs defines the file-system interface shared by the two
// storage backends of the reproduction:
//
//   - bsfs: the paper's BlobSeer File System, which supports concurrent
//     appends to a shared file (§3.2);
//   - hdfs: the write-once-read-many HDFS-like baseline, which rejects
//     appends (§2.2).
//
// The Map/Reduce framework is written against this interface, exactly
// like Hadoop's framework accesses storage "through an interface that
// exposes the basic functions of a file system" — and, as in the paper,
// "the append operation is available in the interface" even though one
// backend refuses it.
//
// Both backends read through one BlockCursor: a read fetches the whole
// block that holds it, and later reads copy out of that block until
// they leave it. The backends differ only in where a block comes from.
//
// Both servers keep their namespace in one Tree: the BSFS namespace
// manager's entries name a file's BLOB and are journaled, the HDFS
// namenode's hold a file's blocks and live in memory. The servers
// differ only in what an entry holds and how they free what a delete
// or a replacing rename displaced.
package dfs

import (
	"context"
	"errors"
	"io"
	"strings"
)

// Errors shared by all backends. They cross RPC boundaries as message
// text; keep them stable.
var (
	ErrNotExist           = errors.New("dfs: no such file or directory")
	ErrExists             = errors.New("dfs: file exists")
	ErrIsDir              = errors.New("dfs: is a directory")
	ErrNotDir             = errors.New("dfs: not a directory")
	ErrNotEmpty           = errors.New("dfs: directory not empty")
	ErrUnderConstruction  = errors.New("dfs: file is under construction")
	ErrAppendNotSupported = errors.New("dfs: append is not supported by this file system")
	ErrInvalidPath        = errors.New("dfs: invalid path")

	// ErrVersionsNotSupported is the stable sentinel OpenVersion and
	// Versions return for a file system without VersionedFileSystem
	// (HDFS: the paper's backend contrast, extended to the version axis).
	ErrVersionsNotSupported = errors.New("dfs: versioned access is not supported by this file system")

	// ErrVersionGone reports an open or read of a file version the
	// storage layer's retention/garbage collection has reclaimed. It is
	// the boundary mapping of the BLOB layer's internal "version
	// collected" failure, so framework and application code can match a
	// stable exported sentinel instead of internal error text that
	// happens to survive RPC boundaries. A reader that pinned its
	// snapshot at open never sees it for the reader's lifetime; it
	// surfaces when opening a version that was already collected, or
	// when tailing far behind a retention window.
	ErrVersionGone = errors.New("dfs: file version collected by retention")
)

// FileInfo describes a namespace entry.
type FileInfo struct {
	Path  string
	IsDir bool
	Size  uint64
	// Blocks is the number of storage blocks/pages backing the file.
	Blocks uint64
	// Version is the file's latest published snapshot version on
	// backends that support versioned access (0 on backends that do
	// not). Stat and List on a versioned backend fill it, so "Stat
	// then OpenVersion" pins exactly the snapshot whose Size was
	// observed.
	Version uint64
}

// VersionInfo describes one published snapshot of a file, as
// enumerated by VersionedFileSystem.Versions. Versions publish in
// assignment order, so Version doubles as the publish order.
type VersionInfo struct {
	// Version identifies the snapshot (1 is the first write; 0 is the
	// empty initial state and is never listed).
	Version uint64
	// Size is the file size at this snapshot.
	Size uint64
	// Blocks is the number of storage blocks backing the snapshot.
	Blocks uint64
}

// BlockLoc locates one block of a file for locality-aware scheduling.
type BlockLoc struct {
	// Offset and Length delimit the block within the file.
	Offset uint64
	Length uint64
	// Hosts are the machines holding a replica.
	Hosts []string
}

// FileWriter is a streaming writer. Data becomes durable (and, for
// appends, visible) in backend-sized blocks; Close flushes the tail.
// Backends may pipeline block commits — keep several blocks in flight
// and surface a block's error on a later Write, Flush, or Close — but
// must preserve the writer's block order in the file and must not
// report success from Close unless every block is durable.
type FileWriter interface {
	// Write buffers p and commits the whole blocks it fills. A backend
	// with atomic appends (a Flusher) commits the blocks of one call
	// together, in runs of at most AtomicLimit bytes: on a writer
	// holding no partial block, a Write of whole blocks no longer than
	// that lands atomically and contiguously, whoever else appends to
	// the file. Bytes short of a block wait for the next Write, Flush
	// or Close.
	Write(p []byte) (int, error)
	io.Closer
}

// Flusher is implemented by writers that can push their buffered bytes
// immediately as one atomic unit. Append-capable backends expose it so
// applications can keep records whole across concurrent appenders
// (GFS-style record append).
type Flusher interface {
	Flush() error
	// AtomicLimit is the most bytes one Write can land as a single
	// atomic, contiguous append: a whole number of blocks.
	AtomicLimit() int
}

// FileReader is a streaming reader with random access. A reader is not
// safe for concurrent use, ReadAt included: both backends serve ReadAt
// from the block their BlockCursor holds for Read, so io.ReaderAt's
// promise of parallel calls does not hold. Open one reader per
// goroutine.
type FileReader interface {
	io.Reader
	io.ReaderAt
	io.Closer
	// Size returns the file size observed when the reader was opened.
	Size() uint64
	// Refresh re-reads the file size (a file being appended to may
	// have grown) and returns the new size.
	Refresh(ctx context.Context) (uint64, error)
}

// VersionedReader is a FileReader bound to one published snapshot.
// OpenVersion returns one, and backends whose Open pins a snapshot may
// return them from Open too; Version reports which snapshot the reader
// is serving.
type VersionedReader interface {
	FileReader
	// Version returns the published version this reader currently
	// serves (for a fixed-version open, the version requested; for a
	// latest-open, the version pinned at open or the last Refresh).
	Version() uint64
}

// VersionedFileSystem is the snapshot capability interface: every
// append to a BlobSeer-backed file publishes an immutable version, and
// backends that expose that axis implement these four methods. A file
// system has the capability or lacks it: HDFS, whose write-once files
// have no version axis, does not implement the interface.
//
// Lease semantics: OpenVersion pins the chosen snapshot against
// garbage collection for the reader's lifetime (released at Close), so
// a versioned reader never observes ErrVersionGone mid-stream; opening
// a version already behind the retention window fails up front with
// ErrVersionGone.
type VersionedFileSystem interface {
	FileSystem
	// OpenVersion opens the file's published snapshot ver for reading
	// (0 means latest, like Open). The snapshot is pinned until the
	// reader closes. Fails with ErrVersionGone when ver has been
	// collected, ErrNotExist when it was never published.
	OpenVersion(ctx context.Context, path string, ver uint64) (VersionedReader, error)
	// Versions enumerates the file's published snapshots still inside
	// the retention window, oldest first.
	Versions(ctx context.Context, path string) ([]VersionInfo, error)
	// WaitVersion blocks until a snapshot newer than after publishes
	// and returns it — the tailing-reader primitive: loop WaitVersion /
	// OpenVersion to follow a file concurrent appenders keep growing,
	// reading each prefix as an immutable snapshot.
	WaitVersion(ctx context.Context, path string, after uint64) (VersionInfo, error)
	// BlockLocationsAt is BlockLocations resolved at snapshot ver
	// (0 means latest): which hosts store each block of that version.
	// Schedulers that pinned a job's input version use it so locality
	// follows the pinned snapshot, not a concurrently growing latest.
	BlockLocationsAt(ctx context.Context, path string, ver uint64, off, length uint64) ([]BlockLoc, error)
}

// AsVersioned probes fs for the snapshot capability the way the
// Map/Reduce framework does: a type assertion.
func AsVersioned(fs FileSystem) (VersionedFileSystem, bool) {
	vfs, ok := fs.(VersionedFileSystem)
	return vfs, ok
}

// OpenVersion opens path's snapshot ver through fs, returning
// ErrVersionsNotSupported when fs lacks the capability.
func OpenVersion(ctx context.Context, fs FileSystem, path string, ver uint64) (VersionedReader, error) {
	vfs, ok := AsVersioned(fs)
	if !ok {
		return nil, ErrVersionsNotSupported
	}
	return vfs.OpenVersion(ctx, path, ver)
}

// Versions enumerates path's retained snapshots through fs, returning
// ErrVersionsNotSupported when fs lacks the capability.
func Versions(ctx context.Context, fs FileSystem, path string) ([]VersionInfo, error) {
	vfs, ok := AsVersioned(fs)
	if !ok {
		return nil, ErrVersionsNotSupported
	}
	return vfs.Versions(ctx, path)
}

// FileSystem is the storage interface the Map/Reduce framework uses.
// Implementations must be safe for concurrent use.
type FileSystem interface {
	// Create creates a new file for writing. Parent directories are
	// created implicitly. Fails with ErrExists if the path exists.
	Create(ctx context.Context, path string) (FileWriter, error)
	// Open opens a file for reading.
	Open(ctx context.Context, path string) (FileReader, error)
	// Append opens an existing file (creating it if absent) for
	// appending. Multiple writers may hold append streams to the same
	// file concurrently on backends that support it; each buffered
	// block is appended atomically. Backends without append support
	// return ErrAppendNotSupported.
	Append(ctx context.Context, path string) (FileWriter, error)
	// Stat describes a path.
	Stat(ctx context.Context, path string) (FileInfo, error)
	// List returns the entries of a directory.
	List(ctx context.Context, dir string) ([]FileInfo, error)
	// Rename moves a file (not a directory). Destination parents are
	// created implicitly; an existing destination is replaced, like
	// Hadoop's output-commit rename.
	Rename(ctx context.Context, src, dst string) error
	// Delete removes a file or empty directory.
	Delete(ctx context.Context, path string) error
	// Mkdir creates a directory (and parents).
	Mkdir(ctx context.Context, path string) error
	// BlockLocations reports which hosts store each block overlapping
	// [off, off+length) of the file, for data-local scheduling.
	BlockLocations(ctx context.Context, path string, off, length uint64) ([]BlockLoc, error)
	// MetadataEntries counts namespace metadata records (files,
	// directories and block records): the "file-count problem" metric.
	MetadataEntries(ctx context.Context) (uint64, error)
	// BlockSize returns the backend's block/page size in bytes.
	BlockSize() uint64
	// Name identifies the backend ("bsfs", "hdfs") in experiment output.
	Name() string
}

// CleanPath canonicalizes a path: it must be absolute, and redundant
// slashes are removed. Returns ErrInvalidPath for malformed input.
func CleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", ErrInvalidPath
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
			continue
		case "..":
			return "", ErrInvalidPath
		default:
			out = append(out, part)
		}
	}
	return "/" + strings.Join(out, "/"), nil
}

// Parent returns the parent directory of a cleaned path ("/" for "/a").
func Parent(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// Base returns the final element of a cleaned path.
func Base(p string) string {
	i := strings.LastIndexByte(p, '/')
	return p[i+1:]
}

// Ancestors lists every ancestor directory of a cleaned path, outermost
// first, excluding "/" and the path itself.
func Ancestors(p string) []string {
	var out []string
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			out = append(out, p[:i])
		}
	}
	return out
}

// ReadAll reads a whole file through fs.
func ReadAll(ctx context.Context, fs FileSystem, path string) ([]byte, error) {
	f, err := fs.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := io.ReadFull(f, buf); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	return buf, nil
}

// WriteFile creates path and writes data through fs.
func WriteFile(ctx context.Context, fs FileSystem, path string, data []byte) error {
	w, err := fs.Create(ctx, path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
