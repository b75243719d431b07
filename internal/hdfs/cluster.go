package hdfs

import (
	"fmt"

	"blobseer/internal/blob"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
)

// ClusterConfig sizes an in-process HDFS deployment: one namenode on a
// dedicated machine and datanodes ("node-000"…) on the remaining nodes
// (§4.1).
type ClusterConfig struct {
	Datanodes int
	Replicas  int
	Seed      int64
}

// Cluster is an in-process HDFS deployment. Its datanodes are BlobSeer
// data providers: a datanode stores write-once chunks under a block id
// as a provider stores immutable pages under a key, so block b is the
// page {Blob: b} and both systems' blocks take the same hops.
type Cluster struct {
	Net       transport.Network
	Cfg       ClusterConfig
	NN        *Namenode
	Datanodes []*blob.Provider
}

// NewCluster starts a namenode and datanodes on net.
func NewCluster(net transport.Network, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Datanodes <= 0 {
		cfg.Datanodes = 8
	}
	c := &Cluster{Net: net, Cfg: cfg}
	nn, err := NewNamenode(net, transport.MakeAddr("namenode-host", SvcNamenode),
		NamenodeConfig{Replicas: cfg.Replicas, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c.NN = nn
	for i := 0; i < cfg.Datanodes; i++ {
		addr := transport.MakeAddr(fmt.Sprintf("node-%03d", i), blob.SvcProvider)
		d, err := blob.NewProvider(net, addr, pagestore.NewMemory())
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Datanodes = append(c.Datanodes, d)
		nn.Register(string(addr))
	}
	return c, nil
}

// DatanodeHosts returns the datanodes' host names (for co-locating
// tasktrackers with datanodes, §4.3).
func (c *Cluster) DatanodeHosts() []string {
	out := make([]string, len(c.Datanodes))
	for i, d := range c.Datanodes {
		out[i] = d.Addr().Host()
	}
	return out
}

// Mount returns an HDFS client mount on host with the given chunk size.
func (c *Cluster) Mount(host string, blockSize uint64) *FS {
	return New(Config{Net: c.Net, Host: host, Namenode: c.NN.Addr(), BlockSize: blockSize})
}

// Close stops all services.
func (c *Cluster) Close() error {
	if c.NN != nil {
		c.NN.Close()
	}
	for _, d := range c.Datanodes {
		d.Close()
	}
	return nil
}
