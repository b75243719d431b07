// Package experiments regenerates every figure of the paper's
// evaluation (§4) plus the derived file-count table, the §5 pipeline
// extension, and ablations of the design choices. Meter and Summary
// are its per-operation throughput samples, Series the (x, y) curves
// of a figure, which Table and CSV render.
//
// The environment reproduces §4.1 at laptop scale: one simulated
// cluster of cfg.Nodes machines on a bandwidth/latency-shaped
// transport; cfg.VMShards version-manager shards (default one, the
// paper's topology), one provider manager, one namespace manager and
// cfg.MetaProviders metadata providers on dedicated
// machines; every remaining machine is a data provider, and clients
// are "launched simultaneously on the same machines as the datanodes
// (data providers, respectively)". Pages/chunks are scaled from the
// paper's 64 MB to cfg.BlockSize (default 256 KiB) so a full sweep
// takes seconds, not hours; shapes, not absolute MB/s, are the
// reproduction target.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blobseer"
	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/shuffle"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
)

// Config scales an experiment environment. The storage knobs are the
// embedded Options' — the same fields, defaults and meanings as every
// other deployment — read here with the paper's set-up in mind:
// MetaProviders (paper: 20), BlockSize (the BlobSeer page = HDFS chunk
// = append unit: "As HDFS handles data in 64 MB chunks, we also set the
// page size at the level of BlobSeer to 64 MB", §4.1; scaled down),
// Strategy (provider placement; default random, which models
// balls-into-bins hotspots, see Abl 2), and WriteDepth, ReadDepth,
// Retain, VMShards and JournalDir for the environment (the
// GC and Meta scenarios sweep their own policies and shard counts
// regardless). Providers, Store, NICBandwidth and Net are set by the
// environment itself from Nodes, the scenario and Bandwidth.
//
// CacheBytes is the exception to "same defaults": the figures measure
// the modeled network, and clients re-reading warm pages from memory
// would flatten the curves, so cmd/experiments' -cachemb defaults to
// off where the library defaults to on. Enable it as an ablation.
type Config struct {
	blobseer.Options

	// Nodes is the total machine count (paper: 270).
	Nodes int
	// Bandwidth models each machine's NIC in bytes/second.
	Bandwidth float64
	// Latency is the one-way per-frame delay.
	Latency time.Duration
	// Reps repeats each measurement ("Each test is executed 5 times").
	Reps int
	// Shuffle selects the Map/Reduce intermediate-data backend for the
	// application experiments that run on BSFS (Figure 6, the
	// pipeline): memory is the classic in-tracker store, blob stores
	// map outputs as concurrent appends to shared intermediate BLOBs.
	// The dedicated Shuffle scenario compares both regardless.
	Shuffle shuffle.Backend
	// Seed drives all randomness.
	Seed int64
}

// withDefaults fills unset fields with the scaled §4.1 topology.
func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 270
	}
	if c.MetaProviders <= 0 {
		c.MetaProviders = 20
	}
	if c.BlockSize == 0 {
		c.BlockSize = 256 << 10
	}
	if c.Bandwidth == 0 {
		// Modeled NIC: 1/10 of GbE. Together with 256 KiB pages this
		// puts one chunk transfer at ~20 ms, far above the ~1 ms sleep
		// granularity of a shared machine, so shaping error stays in
		// the low percent. Absolute MB/s therefore read ~10x below the
		// paper's GbE testbed; the shapes are the reproduction target.
		c.Bandwidth = 12.5 * (1 << 20)
	}
	if c.Latency == 0 {
		c.Latency = 200 * time.Microsecond
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Strategy == nil {
		c.Strategy = blob.NewRandomK(c.Seed + 1)
	}
	return c
}

// providers returns the data-provider count implied by the topology:
// total nodes minus version manager, provider manager, namespace
// manager and metadata providers.
func (c Config) providers() int {
	p := c.Nodes - c.MetaProviders - 3
	if p < 1 {
		p = 1
	}
	return p
}

// bsfsEnv is a running shaped BlobSeer+BSFS deployment.
type bsfsEnv struct {
	cfg     Config
	net     *simnet.Net
	cluster *blob.Cluster
	deploy  *bsfs.Deployment

	mu     sync.Mutex
	mounts []*bsfs.FS
}

// newBSFSEnv boots the shaped BSFS environment for throughput
// microbenchmarks (Figures 3-5): page content is irrelevant there, so
// the synthesizing store keeps 270-node runs memory-flat.
func newBSFSEnv(cfg Config) (*bsfsEnv, error) {
	return newBSFSEnvStore(cfg, blob.StoreSynthesize)
}

// newBSFSEnvStore boots the environment with an explicit page-store
// engine. Application experiments (Figure 6, the pipeline) need
// content-retaining storage: the data join matches real keys.
func newBSFSEnvStore(cfg Config, store blob.StoreKind) (*bsfsEnv, error) {
	net := simnet.New(transport.NewMemNet(), simnet.Config{
		Bandwidth:     cfg.Bandwidth,
		Latency:       cfg.Latency,
		FrameOverhead: 64,
		SleepFloor:    sleepFloor,
	})
	opts := cfg.Options
	opts.Net = net
	opts.Providers = cfg.providers()
	opts.Store = store
	opts.NICBandwidth = cfg.Bandwidth
	c, err := blobseer.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	return &bsfsEnv{cfg: cfg, net: net, cluster: c.Blob, deploy: c.FS}, nil
}

// mount returns a BSFS mount co-located with provider i (mod the
// provider count), like the paper's clients.
func (e *bsfsEnv) mount(i int) *bsfs.FS {
	hosts := e.cluster.ProviderHosts()
	fs := e.deploy.Mount(hosts[i%len(hosts)])
	e.mu.Lock()
	e.mounts = append(e.mounts, fs)
	e.mu.Unlock()
	return fs
}

// closeMounts releases client mounts between sweep points.
func (e *bsfsEnv) closeMounts() {
	e.mu.Lock()
	mounts := e.mounts
	e.mounts = nil
	e.mu.Unlock()
	for _, m := range mounts {
		m.Close()
	}
}

// Close tears the environment down.
func (e *bsfsEnv) Close() {
	e.closeMounts()
	e.deploy.Close()
	e.cluster.Close()
}

// hdfsEnv is a running shaped HDFS deployment of the same scale.
type hdfsEnv struct {
	net     *simnet.Net
	cluster *hdfs.Cluster
}

// newHDFSEnv boots the shaped HDFS environment: a dedicated namenode
// machine and datanodes on the remaining nodes (§4.1). Blocks retain
// content (HDFS only appears in application experiments).
func newHDFSEnv(cfg Config) (*hdfsEnv, error) {
	net := simnet.New(transport.NewMemNet(), simnet.Config{
		Bandwidth:     cfg.Bandwidth,
		Latency:       cfg.Latency,
		FrameOverhead: 64,
		SleepFloor:    sleepFloor,
	})
	cluster, err := hdfs.NewCluster(net, hdfs.ClusterConfig{
		Datanodes: cfg.Nodes - 1,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &hdfsEnv{net: net, cluster: cluster}, nil
}

func (e *hdfsEnv) Close() { e.cluster.Close() }

// chunk builds one deterministic chunk (= page) of payload.
func chunk(cfg Config, tag int) []byte {
	buf := make([]byte, cfg.BlockSize)
	x := uint64(tag)*2654435761 + 12345
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

// freshPath returns a unique file path for a sweep point.
func freshPath(kind string, point int) string {
	return fmt.Sprintf("/bench/%s/point-%03d", kind, point)
}

//lint:detached the bench harness root ctx: experiment runs own their whole process lifetime, there is no caller to thread from
var ctx = context.Background()

// sleepFloor is every shaped network's simnet.Config.SleepFloor; zero
// keeps simnet's default. A virtual-time run (testing/synctest) sets it
// to a nanosecond: a wait under the floor is not slept, and in a bubble
// only sleeps advance the clock.
var sleepFloor time.Duration
