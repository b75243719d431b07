package blobseer

import (
	"context"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/transport"
)

//
// Snapshot-first public surface. The building blocks live in
// internal/ packages; these aliases and re-exports make the whole API
// — including the versioned capability interface — reachable through
// the blobseer package alone, so callers never import internal paths.
//

// Core file-system types, re-exported from internal/dfs.
type (
	// FileSystem is the storage interface Map/Reduce runs against.
	FileSystem = dfs.FileSystem
	// VersionedFileSystem is the snapshot capability interface: probe
	// any FileSystem for it with AsVersioned. BSFS mounts implement it;
	// HDFS mounts do not.
	VersionedFileSystem = dfs.VersionedFileSystem
	// FileReader is a streaming reader with random access.
	FileReader = dfs.FileReader
	// VersionedReader is a FileReader bound to one published snapshot;
	// Version reports which.
	VersionedReader = dfs.VersionedReader
	// FileInfo describes a namespace entry; on versioned backends Stat
	// fills Version with the latest published snapshot.
	FileInfo = dfs.FileInfo
	// VersionInfo describes one published snapshot of a file.
	VersionInfo = dfs.VersionInfo
	// BlockLoc locates one block for locality-aware scheduling.
	BlockLoc = dfs.BlockLoc
	// Snapshot is a pinned BLOB-level snapshot handle (Blob.At): reads
	// through it are immune to garbage collection for its lifetime.
	Snapshot = blob.Snapshot
	// JobConf and JobResult are the Map/Reduce job surface; on a
	// versioned backend a job pins each input file's snapshot at
	// submit (JobResult.InputVersions), so its input set is immutable
	// under concurrent appenders.
	JobConf   = mapreduce.JobConf
	JobResult = mapreduce.JobResult
	// Emitter is what a JobConf's Map, Combine and Reduce functions
	// hand their output records to: func(key, value []byte, out
	// *Emitter) and func(key []byte, values [][]byte, out *Emitter)
	// call out.Emit(key, valueParts...), which copies before it
	// returns; the functions' own arguments are views that die with
	// the call.
	Emitter = mapreduce.Emitter
)

// Stable sentinels of the versioned API, re-exported from internal/dfs.
var (
	// ErrVersionsNotSupported is what the dfs helpers (OpenVersion,
	// Versions) return for a file system without VersionedFileSystem
	// (HDFS).
	ErrVersionsNotSupported = dfs.ErrVersionsNotSupported
	// ErrVersionGone reports an open or read of a snapshot the
	// retention policy has collected.
	ErrVersionGone = dfs.ErrVersionGone
)

// AsVersioned probes fs for the snapshot capability the way the
// Map/Reduce framework does. See dfs.AsVersioned.
func AsVersioned(fs FileSystem) (VersionedFileSystem, bool) { return dfs.AsVersioned(fs) }

// Options sizes and tunes an embedded (in-process) BlobSeer + BSFS
// deployment. The zero value gives a small development cluster. It
// declares only what the facade itself consumes; every other knob is
// the promoted field of the layer that does (README "Configuration"
// has the whole table), so fill it by assignment:
//
//	var o blobseer.Options
//	o.Providers, o.BlockSize, o.WriteDepth = 8, 4096, 8
type Options struct {
	// ClusterConfig is the BlobSeer cluster's topology and policy:
	// Providers, MetaProviders, VMShards, JournalDir, Retain,
	// PageReplicas, CacheBytes (plus the storage engine, placement
	// strategy and modeled NIC capacity the experiments set).
	blob.ClusterConfig
	// DeployConfig is the BSFS layer's: BlockSize, WriteDepth,
	// ReadDepth, HealthPingTimeout.
	bsfs.DeployConfig
	// FlightPath, when set, opens a flight recorder at that path and
	// arms the SLO watchdog (default rules), whose ticker collects the
	// cluster monitor: slow and errored traces, snapshot deltas, and alert
	// transitions persist there and replay after a crash (`bsfsctl
	// diag`).
	FlightPath string
	// Net lets callers supply a shaped or TCP transport; nil uses an
	// in-process transport at memory speed.
	Net transport.Network
}

// Cluster is an embedded BlobSeer + BSFS deployment: the quickest way
// to use the library.
type Cluster struct {
	// Blob is the underlying BlobSeer service cluster.
	Blob *blob.Cluster
	// FS is the BSFS deployment on top of it.
	FS *bsfs.Deployment
}

// NewCluster boots all BlobSeer services, a BSFS namespace manager, the
// garbage collector and the cluster monitor, and (with FlightPath) the
// flight recorder: the one place the boot sequence is written.
func NewCluster(opts Options) (*Cluster, error) {
	net := opts.Net
	if net == nil {
		net = transport.NewMemNet()
	}
	bc, err := blob.NewCluster(net, opts.ClusterConfig)
	if err != nil {
		return nil, err
	}
	d, err := bsfs.Deploy(bc, opts.DeployConfig)
	if err != nil {
		bc.Close()
		return nil, err
	}
	c := &Cluster{Blob: bc, FS: d}
	if opts.FlightPath != "" {
		if err := d.EnableFlight(opts.FlightPath, bsfs.FlightConfig{}); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Mount is a BSFS file-system mount surfaced through the facade: a
// full VersionedFileSystem (versioned opens, history enumeration,
// tailing waits, snapshot-resolved block locations) plus the
// facade-level snapshot helpers below. The promoted method set comes
// from the underlying BSFS client; Close releases the mount.
type Mount struct {
	*bsfs.FS
}

var _ VersionedFileSystem = (*Mount)(nil)

// History enumerates path's published snapshots still inside the
// retention window, oldest first (an alias of Versions that reads
// naturally at call sites: m.History(ctx, "/logs/events")).
func (m *Mount) History(ctx context.Context, path string) ([]VersionInfo, error) {
	return m.Versions(ctx, path)
}

// Tail follows a file concurrent appenders keep growing: it blocks
// until a snapshot newer than after publishes, then opens that
// snapshot pinned. Loop on (info.Version, reader) to consume an
// append-only file as a sequence of immutable prefixes.
func (m *Mount) Tail(ctx context.Context, path string, after uint64) (VersionInfo, VersionedReader, error) {
	info, err := m.WaitVersion(ctx, path, after)
	if err != nil {
		return VersionInfo{}, nil, err
	}
	r, err := m.OpenVersion(ctx, path, info.Version)
	if err != nil {
		return VersionInfo{}, nil, err
	}
	return info, r, nil
}

// Mount returns a BSFS file-system mount running on the named host
// (hosts are simulated machines; use a provider host to co-locate the
// client with storage, as the paper's experiments do).
func (c *Cluster) Mount(host string) *Mount {
	return &Mount{FS: c.FS.Mount(host)}
}

// BlobClient returns a raw BlobSeer client on the named host, for
// direct BLOB create/append/read access below the file-system layer.
func (c *Cluster) BlobClient(host string) *blob.Client {
	return c.Blob.Client(host)
}

// NewFramework starts a Map/Reduce framework with one tasktracker on
// every data-provider host, co-deployed like the paper's setup.
func (c *Cluster) NewFramework() (*mapreduce.Framework, error) {
	return mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   c.Blob.Net,
		Hosts: c.Blob.ProviderHosts(),
		Mount: func(host string) dfs.FileSystem { return c.Mount(host) },
	})
}

// Close tears the deployment down.
func (c *Cluster) Close() error {
	err := c.FS.Close()
	if cerr := c.Blob.Close(); err == nil {
		err = cerr
	}
	return err
}
