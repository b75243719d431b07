package bsfs

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/flight"
	"blobseer/internal/gc"
	"blobseer/internal/monitor"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
)

// DeployConfig is what Deploy needs beyond the BlobSeer cluster. Like
// Tuning, which it embeds, it is the one declaration of its knobs: the
// facade's Options embeds it in turn.
type DeployConfig struct {
	// Tuning is handed to every mount of the deployment.
	Tuning

	// GCInterval arms periodic garbage-collection passes. 0 leaves the
	// collector kick-driven: file deletion still reclaims storage, but
	// retention policies only make progress when something kicks it.
	GCInterval time.Duration

	// HealthPingTimeout bounds each VM-shard ping in Health; 0 means
	// DefaultHealthPingTimeout. The router's failover retry would
	// otherwise mask a dead shard for the caller's whole deadline.
	HealthPingTimeout time.Duration
}

// DefaultHealthPingTimeout is the shard ping bound of a deployment
// that does not set its own.
const DefaultHealthPingTimeout = 2 * time.Second

// Deployment bundles a BlobSeer cluster with a BSFS namespace manager
// and the garbage collector: a complete BSFS installation.
type Deployment struct {
	Blob *blob.Cluster
	NS   *NamespaceManager

	// DeployConfig is what Deploy was given. Its Tuning and
	// HealthPingTimeout stay live: a mount or health check made after a
	// change sees it.
	DeployConfig

	// GC is the deployment's garbage collector. It is always created —
	// file deletion kicks it so "rm" actually frees provider storage —
	// and runs kick-driven unless GCInterval arms periodic passes
	// (which retention policies need to make progress without deletes).
	GC *gc.Collector

	// Monitor is the deployment's cluster monitor: every provider, VM
	// shard, the namespace manager, and each Mount register stats
	// sources on it. It is collect-on-demand until EnableFlight or
	// SetMonitorInterval arms the periodic collector.
	Monitor *monitor.Monitor

	// Flight is the deployment's flight recorder, nil until
	// EnableFlight wires one. Watchdog is the SLO rule engine armed
	// alongside it.
	Flight   *flight.Recorder
	Watchdog *flight.Watchdog
	sampler  *flight.Sampler

	nsClient *blob.Client // owned by the namespace manager
	gcClient *blob.Client // owned by the collector wiring
}

// Deploy starts a namespace manager on host "bsfs-ns-host" attached to
// an existing BlobSeer cluster, plus a garbage collector co-located
// with the version manager.
func Deploy(c *blob.Cluster, cfg DeployConfig) (*Deployment, error) {
	nsClient := c.Client("bsfs-ns-host")
	// The namespace manager shares the cluster's durability mode: with a
	// journal directory it survives restarts alongside the version-
	// manager shards.
	nsJournal := ""
	if c.Cfg.JournalDir != "" {
		nsJournal = filepath.Join(c.Cfg.JournalDir, "namespace.log")
	}
	ns, err := NewNamespaceManager(c.Net, transport.MakeAddr("bsfs-ns-host", SvcNamespace), nsClient, nsJournal)
	if err != nil {
		nsClient.Close()
		return nil, err
	}
	// The collector gets its own client (cache purges must not race a
	// real mount's reads) and a kick from every lifecycle RPC on every
	// shard, so deletions reclaim promptly even with no periodic
	// interval armed; the cluster re-wires the kick when a shard
	// restarts after failover.
	gcClient := c.Client("vmanager-host")
	collector := gc.New(gcClient, gc.Options{Interval: cfg.GCInterval})
	c.SetReclaimNotify(collector.Kick)

	mon := monitor.New(monitor.Config{NICBandwidth: c.Cfg.NICBandwidth})
	for _, p := range c.Providers {
		p := p
		mon.Register(monitor.KindProvider, p.Addr().Host(), func() monitor.Sample {
			return p.MonitorSample()
		})
	}
	for i := range c.VMAddrs() {
		i := i
		mon.Register(monitor.KindVMShard, fmt.Sprintf("shard-%d", i), func() monitor.Sample {
			// ShardVM, not VMs[i]: failover swaps the slot concurrently.
			vm := c.ShardVM(i)
			if vm == nil {
				return nil
			}
			return vm.MonitorSample()
		})
	}
	mon.Register(monitor.KindNamespace, "namespace", func() monitor.Sample {
		return ns.MonitorSample()
	})

	return &Deployment{
		Blob:         c,
		NS:           ns,
		DeployConfig: cfg,
		GC:           collector,
		Monitor:      mon,
		nsClient:     nsClient,
		gcClient:     gcClient,
	}, nil
}

// SetMonitorInterval arms the cluster monitor's periodic collection at
// a cadence other than the one EnableFlight picks (0 stops it, leaving
// the monitor collect-on-demand).
func (d *Deployment) SetMonitorInterval(interval time.Duration) {
	d.Monitor.SetInterval(interval)
}

func (d *Deployment) healthPingTimeout() time.Duration {
	if d.HealthPingTimeout > 0 {
		return d.HealthPingTimeout
	}
	return DefaultHealthPingTimeout
}

// Health checks every component and reports per-component verdicts
// with per-check latency: the namespace journal is open, every VM
// shard answers a cheap stats ping through the router (bounded by
// HealthPingTimeout), and (when armed) the monitor's collector has run
// within two intervals. The /healthz endpoint serves this with a 503
// on degradation.
func (d *Deployment) Health(ctx context.Context) monitor.HealthReport {
	rep := monitor.HealthReport{Healthy: true, CheckedAt: time.Now()}

	start := time.Now()
	if d.NS.JournalOpen() {
		rep.AddTimed("namespace", true, "", time.Since(start))
	} else {
		rep.AddTimed("namespace", false, "journal closed", time.Since(start))
	}

	router := d.nsClient.VMRouter()
	pingTimeout := d.healthPingTimeout()
	for i, addr := range d.Blob.VMAddrs() {
		name := fmt.Sprintf("vmshard-%d", i)
		cctx, cancel := context.WithTimeout(ctx, pingTimeout)
		var resp blob.VMStatsResp
		start := time.Now()
		err := router.CallAddr(cctx, addr, blob.VMStats, nil, &resp)
		took := time.Since(start)
		cancel()
		if err != nil {
			rep.AddTimed(name, false, fmt.Sprintf("ping: %v", err), took)
		} else {
			rep.AddTimed(name, true, "", took)
		}
	}

	start = time.Now()
	if iv, armed := d.Monitor.Armed(); armed {
		if d.Monitor.Fresh(2 * iv) {
			rep.AddTimed("monitor", true, "", time.Since(start))
		} else {
			rep.AddTimed("monitor", false, fmt.Sprintf("collector stale (no pass within %v)", 2*iv), time.Since(start))
		}
	} else {
		rep.AddTimed("monitor", true, "collector unarmed (collect-on-demand)", time.Since(start))
	}
	return rep
}

// FlightConfig wires a flight recorder + SLO watchdog onto a
// deployment. Zero values take the flight package defaults.
type FlightConfig struct {
	Sampler  flight.SamplerOptions
	Watchdog flight.WatchdogOptions
	Rules    flight.StandardRulesOptions
	// ExtraRules are appended after the standard set.
	ExtraRules []flight.Rule
}

// EnableFlight opens a flight recorder at path, attaches the tail
// sampler to the process-wide span collector, and arms an SLO watchdog
// (standard rules + cfg.ExtraRules, health check wired to
// Deployment.Health) on the cluster monitor: every collection pass
// evaluates the rules, and snapshots/health transitions/alerts land in
// the flight log. The rules only run when the monitor collects, so a
// monitor nobody armed is armed here at monitor.DefaultInterval. Close
// tears it all down; a kill doesn't, which is the point — the log
// replays.
func (d *Deployment) EnableFlight(path string, cfg FlightConfig) error {
	if d.Flight != nil {
		return fmt.Errorf("bsfs: flight recorder already enabled")
	}
	rec, err := flight.Open(path)
	if err != nil {
		return err
	}
	rules := append(flight.StandardRules(cfg.Rules), cfg.ExtraRules...)
	wopts := cfg.Watchdog
	if wopts.HealthCheck == nil && cfg.Rules.Health {
		wopts.HealthCheck = d.Health
	}
	d.Flight = rec
	d.sampler = flight.AttachSampler(obs.Spans, rec, cfg.Sampler)
	d.Watchdog = flight.NewWatchdog(d.Monitor, rec, rules, wopts)
	d.Watchdog.Arm()
	if _, armed := d.Monitor.Armed(); !armed {
		d.Monitor.SetInterval(monitor.DefaultInterval)
	}
	return nil
}

// Mount returns a BSFS client mount running on host. The mount reports
// as a client stats source on the monitor until it closes.
func (d *Deployment) Mount(host string) *FS {
	fs := New(Config{
		ClientConfig: d.Blob.ClientConfig(host),
		Namespace:    d.NS.Addr(),
		Tuning:       d.Tuning,
	})
	bc := fs.BlobClient()
	src := d.Monitor.Register(monitor.KindClient, host, func() monitor.Sample {
		rs := bc.ReadStats().Snapshot()
		s := monitor.Sample{
			"cache_hits_total":        float64(rs.Hits),
			"cache_misses_total":      float64(rs.Misses),
			"provider_fetches_total":  float64(rs.ProviderFetches),
			"provider_failures_total": float64(rs.ProviderFailures),
			"inflight_writes":         float64(bc.InFlight()),
		}
		if pc := bc.PageCache(); pc != nil {
			s["cache_bytes"] = float64(pc.Bytes())
		}
		return s
	})
	fs.onClose = src.Unregister
	return fs
}

// Close stops the namespace manager and the collector (the BlobSeer
// cluster is owned by the caller).
func (d *Deployment) Close() error {
	d.Blob.SetReclaimNotify(nil)
	if d.Watchdog != nil {
		d.Watchdog.Close()
		d.Watchdog = nil
	}
	if d.sampler != nil {
		d.sampler.Close()
		d.sampler = nil
	}
	d.Monitor.Close()
	d.GC.Close()
	err := d.NS.Close()
	d.nsClient.Close()
	d.gcClient.Close()
	if d.Flight != nil {
		d.Flight.Close()
		d.Flight = nil
	}
	return err
}
