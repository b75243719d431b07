package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
)

// StoreKind selects the provider storage engine.
type StoreKind int

// Provider storage engines.
const (
	StoreMemory StoreKind = iota
	StoreSynthesize
)

// ClusterConfig sizes an in-process BlobSeer deployment and sets its
// policy. This is the one place these knobs are declared: the facade's
// Options and the experiment Config embed it. The defaults mirror the
// paper's §4.1 topology proportions: one version manager, one provider
// manager, a set of metadata providers, and the remaining nodes as
// data providers ("node-000"…, the hosts clients co-locate with).
type ClusterConfig struct {
	Providers     int       // data providers (default 8)
	MetaProviders int       // metadata providers (default 3)
	Store         StoreKind // provider storage engine
	Strategy      Strategy  // provider allocation (default RoundRobin)

	// VMShards partitions the metadata plane across N version-manager
	// shards (default 1: the paper's single version manager). BLOB ids
	// are consistent-hashed across shards; every client routes through
	// the shared VMRouter ring.
	VMShards int

	// JournalDir, when non-empty, makes the metadata plane durable:
	// shard i journals to <JournalDir>/vmanager-<i>.log (and a BSFS
	// namespace manager deployed on the cluster to namespace.log) and a
	// restarted (or failed-over) service replays to its acknowledged
	// state. Empty keeps the in-memory managers.
	JournalDir string

	// Retain is the version manager's default RetainLatest policy:
	// keep only the latest k published versions per BLOB and let the
	// garbage collector retire the rest. 0 keeps every version.
	Retain uint64

	// NICBandwidth is the modeled per-host NIC capacity in bytes/s of
	// the underlying transport (simnet's Bandwidth). Purely descriptive
	// at this layer: the cluster monitor computes provider utilization
	// against it. 0 means unknown.
	NICBandwidth float64

	// ClientPolicy is handed to every client of the deployment, raw
	// BLOB clients and BSFS mounts alike.
	ClientPolicy

	// lease, when non-zero, replaces every shard's lease: tests shorten
	// it to see an abandoned version sealed.
	lease time.Duration
}

// metaReplicas is the DHT replication factor of tree nodes (capped at
// the metadata membership size by the DHT client).
const metaReplicas = 2

// Cluster is an in-process BlobSeer deployment on one transport.
type Cluster struct {
	Net transport.Network
	Cfg ClusterConfig

	// VMs holds every version-manager shard in ring-slot order.
	VMs       []*VersionManager
	PM        *ProviderManager
	Providers []*Provider
	Metas     []*dht.Server

	vmAddrs []transport.Addr // stable shard endpoints (survive restarts)
	vmPools []*rpc.Pool      // per-shard pools backing seal-path metadata clients

	// reclaim is the one channel every shard signals when a reclaim
	// pass may find garbage (VersionManagerConfig.reclaim); a restarted
	// shard gets it from startVM like the first.
	reclaim chan struct{}

	// vmMu guards VMs slot replacement: failover (startVM) swaps a
	// shard pointer while the cluster monitor samples through ShardVM.
	vmMu sync.RWMutex
}

// VMShardHost names the host of version-manager shard i. Shard 0
// keeps the historical "vmanager-host" so single-shard deployments
// are wire-identical to earlier versions. Exported so shaped
// environments can give the metadata hosts their own NIC profile.
func VMShardHost(i int) string {
	if i == 0 {
		return "vmanager-host"
	}
	return fmt.Sprintf("vmanager-%d-host", i)
}

// NewCluster starts all services of a BlobSeer deployment on net.
func NewCluster(net transport.Network, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Providers <= 0 {
		cfg.Providers = 8
	}
	if cfg.MetaProviders <= 0 {
		cfg.MetaProviders = 3
	}
	if cfg.VMShards <= 0 {
		cfg.VMShards = 1
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, err
		}
	}
	c := &Cluster{Net: net, Cfg: cfg, reclaim: make(chan struct{}, 1)}

	// Metadata providers.
	for i := 0; i < cfg.MetaProviders; i++ {
		addr := transport.MakeAddr(fmt.Sprintf("meta-%03d", i), SvcMetadata)
		s, err := dht.NewServer(net, addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Metas = append(c.Metas, s)
	}

	// Version-manager shards. Addresses are fixed up front: the ring
	// over them is what every router and every shard's id allocator
	// hashes against, and failover re-binds an address rather than
	// changing the set.
	for i := 0; i < cfg.VMShards; i++ {
		c.vmAddrs = append(c.vmAddrs, transport.MakeAddr(VMShardHost(i), SvcVersionManager))
	}
	c.VMs = make([]*VersionManager, cfg.VMShards)
	c.vmPools = make([]*rpc.Pool, cfg.VMShards)
	for i := 0; i < cfg.VMShards; i++ {
		if err := c.startVM(i); err != nil {
			c.Close()
			return nil, err
		}
	}

	// Provider manager.
	pm, err := NewProviderManager(net, transport.MakeAddr("pmanager-host", SvcProviderManager), cfg.Strategy)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.PM = pm

	// Data providers, registered with the provider manager.
	for i := 0; i < cfg.Providers; i++ {
		addr := transport.MakeAddr(fmt.Sprintf("node-%03d", i), SvcProvider)
		var store pagestore.Store
		switch cfg.Store {
		case StoreSynthesize:
			store = pagestore.NewSynthesize()
		default:
			store = pagestore.NewMemory()
		}
		p, err := NewProvider(net, addr, store)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Providers = append(c.Providers, p)
		pm.Register(string(addr))
	}
	return c, nil
}

// startVM boots shard i at its stable address: a fresh pool for the
// shard's seal-path metadata client, plus the journal path when the
// cluster is durable. It is both the initial boot and the failover
// path (RestartVM).
func (c *Cluster) startVM(i int) error {
	if c.vmPools[i] != nil {
		c.vmPools[i].Close()
	}
	pool := rpc.NewPool(c.Net, transport.MakeAddr(VMShardHost(i), "client"))
	ring := dht.NewRing(c.MetaAddrs(), 64)
	nodes := NewNodeStore(dht.NewClient(ring, pool, metaReplicas))
	vmCfg := VersionManagerConfig{
		Nodes:        nodes,
		RetainLatest: c.Cfg.Retain,
		ShardIndex:   i,
		ShardAddrs:   c.vmAddrs,
		lease:        c.Cfg.lease,
		reclaim:      c.reclaim,
	}
	if c.Cfg.JournalDir != "" {
		vmCfg.JournalPath = filepath.Join(c.Cfg.JournalDir, fmt.Sprintf("vmanager-%d.log", i))
	}
	vm, err := NewVersionManager(c.Net, c.vmAddrs[i], vmCfg)
	if err != nil {
		pool.Close()
		return err
	}
	c.vmPools[i] = pool
	c.vmMu.Lock()
	c.VMs[i] = vm
	c.vmMu.Unlock()
	return nil
}

// ShardVM returns the current version-manager shard in slot i. Unlike
// reading VMs[i] directly, it is safe against a concurrent failover
// restart swapping the slot (the cluster monitor samples through it).
func (c *Cluster) ShardVM(i int) *VersionManager {
	c.vmMu.RLock()
	defer c.vmMu.RUnlock()
	if i < 0 || i >= len(c.VMs) {
		return nil
	}
	return c.VMs[i]
}

// KillVM crashes shard i: the endpoint unbinds and the journal closes
// WITHOUT a final checkpoint, exactly what a process kill leaves
// behind. Callers' routed RPCs fail over to the retry loop until
// RestartVM re-binds the address.
func (c *Cluster) KillVM(i int) error {
	if c.VMs[i] == nil {
		return nil
	}
	return c.VMs[i].Kill()
}

// RestartVM brings shard i back at its old address — the standby
// takeover: open the shard's journal, replay to the acknowledged
// state, re-bind. Requires JournalDir (an in-memory shard has no state
// to take over).
func (c *Cluster) RestartVM(i int) error {
	return c.startVM(i)
}

// VMAddrs returns every shard endpoint, in ring-slot order.
func (c *Cluster) VMAddrs() []transport.Addr {
	return append([]transport.Addr(nil), c.vmAddrs...)
}

// ReclaimSignals is the channel the deployment's collector runs a pass
// on: any shard signals it after a lifecycle RPC and on every tick of
// its lease sweep. One signal stands for any number sent since the
// last receive.
func (c *Cluster) ReclaimSignals() <-chan struct{} {
	return c.reclaim
}

// MetaAddrs returns the metadata provider endpoints.
func (c *Cluster) MetaAddrs() []transport.Addr {
	out := make([]transport.Addr, len(c.Metas))
	for i, m := range c.Metas {
		out[i] = m.Addr()
	}
	return out
}

// ProviderHosts returns the host names of all data providers, for
// co-locating clients with providers as the paper's experiments do.
func (c *Cluster) ProviderHosts() []string {
	out := make([]string, len(c.Providers))
	for i, p := range c.Providers {
		out[i] = p.Addr().Host()
	}
	return out
}

// ProviderBytes sums BytesUsed over all data providers; tests and the
// GC experiments watch it to verify reclamation.
func (c *Cluster) ProviderBytes() int64 {
	var total int64
	for _, p := range c.Providers {
		total += p.Store().BytesUsed()
	}
	return total
}

// ClientConfig is the configuration of a client of this deployment
// running on host: the service endpoints and the cluster's client
// policy.
func (c *Cluster) ClientConfig(host string) ClientConfig {
	return ClientConfig{
		Net:             c.Net,
		Host:            host,
		VersionManagers: c.VMAddrs(),
		ProviderManager: c.PM.Addr(),
		Metadata:        c.MetaAddrs(),
		ClientPolicy:    c.Cfg.ClientPolicy,
	}
}

// Client returns a client for this deployment running on host.
func (c *Cluster) Client(host string) *Client {
	return NewClient(c.ClientConfig(host))
}

// Close tears the whole deployment down.
func (c *Cluster) Close() error {
	for _, vm := range c.VMs {
		if vm != nil {
			vm.Close()
		}
	}
	if c.PM != nil {
		c.PM.Close()
	}
	for _, p := range c.Providers {
		p.Close()
	}
	for _, m := range c.Metas {
		m.Close()
	}
	for _, p := range c.vmPools {
		if p != nil {
			p.Close()
		}
	}
	return nil
}
