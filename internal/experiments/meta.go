package experiments

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/pagestore"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
)

// The Meta scenario exercises the metadata plane the paper keeps
// centralized: "the version manager ... is the only serialization
// point of BlobSeer" (§3.1.1). Three parts:
//
//   - Scaling: many writers, each appending tiny records to its own
//     BLOB, so every operation is metadata-bound (assign + complete +
//     publish-wait + two lookups all hit the version manager, while
//     the 256-byte payload barely touches the data plane). The sweep
//     re-runs the same workload with 1, 2 and 4 version-manager
//     shards on a deliberately narrow modeled NIC; aggregate publish
//     throughput must grow with the shard count.
//   - Failover: a 3-shard journaled deployment under the same
//     workload. One shard is killed mid-run WITHOUT a final
//     checkpoint and restarted from its journal a moment later;
//     writers ride the router's retry loop across the outage. Every
//     append acknowledged at any point must read back byte-identical
//     afterwards — the acceptance bar is zero lost acknowledged
//     writes.
//   - Recovery: the whole metadata plane is then killed and restarted
//     cold. The replayed shards must serve the full pre-crash history
//     (latest version, history length, and payload bytes per BLOB);
//     the result records how many journal records replay restored and
//     how long it took.

// MetaPoint is one scaling measurement.
type MetaPoint struct {
	Shards    int
	OpsPerSec float64
}

// MetaFailover reports the kill-one-shard run.
type MetaFailover struct {
	Shards       int
	Writers      int
	KilledShard  int
	AckedBefore  int
	AckedTotal   int
	LostWrites   int
	OutageMS     float64
	ResumedAfter int
}

// MetaRecovery reports the cold-restart replay.
type MetaRecovery struct {
	Shards   int
	Records  int
	Blobs    int
	Versions uint64
	ReplayMS float64
}

// MetaResult bundles all three parts.
type MetaResult struct {
	Scaling  []MetaPoint
	Failover MetaFailover
	Recovery MetaRecovery
}

// Meta-scenario sizing. The metadata hosts' modeled NIC is 16x
// narrower than everyone else's: with 256-byte payloads the
// version-manager endpoints are the only saturated links, which is
// exactly the bottleneck sharding attacks. (It was 8x while an
// unaligned append still asked its shard to wait for the previous
// version; one round trip fewer per op left the four-shard point bound
// by the op's own latency instead, and so by whatever else the host was
// running.) Each writer owns one BLOB, so BLOBs (and their journal
// records) spread across the shard ring.
const (
	metaClientBW   = 4 * (1 << 20) // bytes/s: client/provider NICs
	metaVMBW       = 1 * (1 << 18) // bytes/s: metadata host NICs, the bottleneck
	metaPayload    = 256           // bytes per append
	metaPageSize   = 4096          // page size of the workload BLOBs
	metaProviders  = 48            // one writer per client host NIC
	metaWriters    = 48            // scaling part: one BLOB each
	metaOpsPerW    = 12            // scaling part: appends per writer
	failWriters    = 12            // failover part
	failOpsBefore  = 6             // acked per writer before the kill
	failOpsAfter   = 10            // acked per writer after the kill starts
	failOutage     = 200 * time.Millisecond
	metaShardSweep = 3 // scaling sweep: 1 << i for i < metaShardSweep
)

// Meta runs the metadata-plane scenario: shard-count scaling, a
// kill-one-shard failover, and a cold-restart replay.
func Meta(cfg Config) (*MetaResult, error) {
	cfg = cfg.withDefaults()
	res := &MetaResult{}

	for i := 0; i < metaShardSweep; i++ {
		shards := 1 << i
		ops, err := metaScalingRun(cfg, shards)
		if err != nil {
			return nil, fmt.Errorf("meta scaling (%d shards): %w", shards, err)
		}
		res.Scaling = append(res.Scaling, MetaPoint{Shards: shards, OpsPerSec: ops})
	}

	if err := metaFailoverRun(cfg, res); err != nil {
		return nil, fmt.Errorf("meta failover: %w", err)
	}
	return res, nil
}

// metaEnv boots a bare blob.Cluster (no BSFS layer — the scenario
// measures the BLOB metadata plane directly) on a shaped transport.
type metaEnv struct {
	net     *simnet.Net
	cluster *blob.Cluster

	mu      sync.Mutex
	clients []*blob.Client
}

func newMetaEnv(cfg Config, shards int, journalDir string) (*metaEnv, error) {
	// The metadata hosts get a deliberately narrower NIC than the rest
	// of the cluster, so the sweep measures the serialization point the
	// paper centralizes (§3.1.1), not the data plane: tiny appends leave
	// client and provider links mostly idle while control messages
	// saturate the version managers.
	perHost := make(map[string]float64, shards)
	for i := 0; i < shards; i++ {
		perHost[blob.VMShardHost(i)] = metaVMBW
	}
	net := simnet.New(transport.NewMemNet(), simnet.Config{
		Bandwidth:     metaClientBW,
		Latency:       cfg.Latency,
		FrameOverhead: 64,
		SleepFloor:    sleepFloor,
		PerHost:       perHost,
	})
	cluster, err := blob.NewCluster(net, blob.ClusterConfig{
		Providers:     metaProviders,
		MetaProviders: cfg.MetaProviders,
		Strategy:      cfg.Strategy,
		VMShards:      shards,
		JournalDir:    journalDir,
	})
	if err != nil {
		return nil, err
	}
	return &metaEnv{net: net, cluster: cluster}, nil
}

// client returns a blob client co-located with provider i.
func (e *metaEnv) client(i int) *blob.Client {
	hosts := e.cluster.ProviderHosts()
	c := e.cluster.Client(hosts[i%len(hosts)])
	e.mu.Lock()
	e.clients = append(e.clients, c)
	e.mu.Unlock()
	return c
}

func (e *metaEnv) Close() {
	e.mu.Lock()
	clients := e.clients
	e.clients = nil
	e.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	e.cluster.Close()
}

// metaOp is one metadata-bound operation: append a tiny record, wait
// for its version to publish, then hit the version manager twice more
// the way readers do (GetVersion + Latest).
func metaOp(c *blob.Client, bl *blob.Blob, seed uint64) (blob.WriteResult, error) {
	data := make([]byte, metaPayload)
	pagestore.Fill(data, seed)
	wr, err := bl.Append(ctx, data)
	if err != nil {
		return wr, err
	}
	if _, err := bl.WaitPublished(ctx, wr.Ver); err != nil {
		return wr, err
	}
	if _, err := bl.GetVersion(ctx, wr.Ver); err != nil {
		return wr, err
	}
	if _, err := bl.Latest(ctx); err != nil {
		return wr, err
	}
	return wr, nil
}

// metaScalingRun measures aggregate publish throughput at one shard
// count: metaWriters writers, one BLOB each, metaOpsPerW ops each.
func metaScalingRun(cfg Config, shards int) (float64, error) {
	env, err := newMetaEnv(cfg, shards, "")
	if err != nil {
		return 0, err
	}
	defer env.Close()

	blobs := make([]*blob.Blob, metaWriters)
	clients := make([]*blob.Client, metaWriters)
	for w := 0; w < metaWriters; w++ {
		clients[w] = env.client(w)
		bl, err := clients[w].Create(ctx, metaPageSize)
		if err != nil {
			return 0, err
		}
		blobs[w] = bl
	}

	start := time.Now()
	err = fanOut(metaWriters, func(w int) (func() error, error) {
		return func() error {
			for op := 0; op < metaOpsPerW; op++ {
				if _, err := metaOp(clients[w], blobs[w], uint64(w*1000+op+1)); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	return float64(metaWriters*metaOpsPerW) / elapsed, nil
}

// ackedWrite is one acknowledged append: enough to re-derive and
// re-verify its payload after a crash.
type ackedWrite struct {
	blob  uint64
	ver   uint64
	start uint64
	seed  uint64
}

// metaFailoverRun drives the journaled 3-shard deployment, kills one
// shard mid-workload, restarts it from its journal, verifies zero
// acknowledged-write loss, then cold-restarts the whole plane and
// verifies the replayed history (filling res.Failover and
// res.Recovery).
func metaFailoverRun(cfg Config, res *MetaResult) error {
	dir, err := os.MkdirTemp("", "blobseer-meta-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const shards = 3
	env, err := newMetaEnv(cfg, shards, dir)
	if err != nil {
		return err
	}
	defer env.Close()

	blobs := make([]*blob.Blob, failWriters)
	clients := make([]*blob.Client, failWriters)
	for w := 0; w < failWriters; w++ {
		clients[w] = env.client(w)
		bl, err := clients[w].Create(ctx, metaPageSize)
		if err != nil {
			return err
		}
		blobs[w] = bl
	}
	// Kill the shard owning writer 0's BLOB, so at least one writer is
	// provably routed through the outage.
	victim := -1
	victimAddr := clients[0].VMRouter().Shard(blobs[0].ID())
	for i, a := range env.cluster.VMAddrs() {
		if a == victimAddr {
			victim = i
		}
	}
	if victim < 0 {
		return fmt.Errorf("victim shard for blob %d not found", blobs[0].ID())
	}

	var mu sync.Mutex
	var acked []ackedWrite
	record := func(w, op int, bl *blob.Blob, wr blob.WriteResult, seed uint64) {
		mu.Lock()
		acked = append(acked, ackedWrite{blob: bl.ID(), ver: wr.Ver, start: wr.Start, seed: seed})
		mu.Unlock()
	}
	runPhase := func(opLo, opHi int) error {
		return fanOut(failWriters, func(w int) (func() error, error) {
			return func() error {
				for op := opLo; op < opHi; op++ {
					seed := uint64(w)<<32 | uint64(op+1)
					wr, err := metaOp(clients[w], blobs[w], seed)
					if err != nil {
						return fmt.Errorf("writer %d op %d: %w", w, op, err)
					}
					record(w, op, blobs[w], wr, seed)
				}
				return nil
			}, nil
		})
	}

	// Phase 1: build up acknowledged state on every shard.
	if err := runPhase(0, failOpsBefore); err != nil {
		return err
	}
	ackedBefore := len(acked)

	// Phase 2: writers run while the victim shard crashes and a standby
	// replays its journal at the same address. Routed RPCs to the dead
	// endpoint ride the capped-backoff retry loop until takeover.
	outageStart := time.Now()
	if err := env.cluster.KillVM(victim); err != nil {
		return err
	}
	phaseErr := make(chan error, 1)
	go func() { phaseErr <- runPhase(failOpsBefore, failOpsBefore+failOpsAfter) }()
	time.Sleep(failOutage)
	if err := env.cluster.RestartVM(victim); err != nil {
		return err
	}
	outage := time.Since(outageStart)
	if err := <-phaseErr; err != nil {
		return err
	}

	// Verify: every acknowledged write reads back byte-identical.
	lost, err := metaVerify(clients[0], acked)
	if err != nil {
		return err
	}
	res.Failover = MetaFailover{
		Shards:       shards,
		Writers:      failWriters,
		KilledShard:  victim,
		AckedBefore:  ackedBefore,
		AckedTotal:   len(acked),
		LostWrites:   lost,
		OutageMS:     float64(outage.Microseconds()) / 1000,
		ResumedAfter: len(acked) - ackedBefore,
	}
	if lost > 0 {
		return fmt.Errorf("failover lost %d of %d acknowledged writes", lost, len(acked))
	}

	// Part 3: cold restart. Kill every shard (no final checkpoints) and
	// bring the whole plane back from the journals alone.
	for i := 0; i < shards; i++ {
		if err := env.cluster.KillVM(i); err != nil {
			return err
		}
	}
	replayStart := time.Now()
	records := 0
	for i := 0; i < shards; i++ {
		if err := env.cluster.RestartVM(i); err != nil {
			return err
		}
		records += env.cluster.VMs[i].RecoveredRecords()
	}
	replay := time.Since(replayStart)

	lost, err = metaVerify(clients[0], acked)
	if err != nil {
		return err
	}
	if lost > 0 {
		return fmt.Errorf("cold restart lost %d of %d acknowledged writes", lost, len(acked))
	}
	var versions uint64
	for _, bl := range blobs {
		info, err := bl.Latest(ctx)
		if err != nil {
			return err
		}
		versions += info.Ver
		hist, err := bl.History(ctx, 0)
		if err != nil {
			return err
		}
		if uint64(len(hist)) != info.Ver {
			return fmt.Errorf("blob %d: history has %d entries, latest is v%d", bl.ID(), len(hist), info.Ver)
		}
	}
	res.Recovery = MetaRecovery{
		Shards:   shards,
		Records:  records,
		Blobs:    failWriters,
		Versions: versions,
		ReplayMS: float64(replay.Microseconds()) / 1000,
	}
	return nil
}

// metaVerify re-reads every acknowledged write through a fresh handle
// and counts the ones that fail or come back with the wrong bytes.
func metaVerify(c *blob.Client, acked []ackedWrite) (int, error) {
	lost := 0
	for _, a := range acked {
		bl := c.Handle(a.blob, metaPageSize)
		want := make([]byte, metaPayload)
		pagestore.Fill(want, a.seed)
		got, err := bl.ReadAt(ctx, a.ver, a.start, metaPayload)
		if err != nil {
			lost++
			continue
		}
		if !bytes.Equal(got, want) {
			lost++
		}
	}
	return lost, nil
}
