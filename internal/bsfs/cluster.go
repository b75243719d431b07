package bsfs

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/flight"
	"blobseer/internal/gc"
	"blobseer/internal/metrics"
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

	// GC is the deployment's garbage collector. It is always created,
	// and runs a pass whenever a version-manager shard signals one:
	// after a file deletion, so "rm" frees provider storage at once,
	// and on every lease sweep, so retention and expired pins are
	// collected within one sweep.
	GC *gc.Collector

	// Monitor is the deployment's cluster monitor: every provider, VM
	// shard, the namespace manager, and each Mount register stats
	// sources on it. It collects on demand: a scrape, or each tick of
	// the watchdog EnableFlight arms.
	Monitor *monitor.Monitor

	// Flight is the deployment's flight recorder, nil until
	// EnableFlight wires one. Watchdog is the SLO rule engine armed
	// alongside it; its ticker sets the monitor's cadence.
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
	// real mount's reads) and the cluster's reclaim signals, which every
	// shard, restarted ones included, sends.
	gcClient := c.Client("vmanager-host")
	collector := gc.New(gcClient, c.ReclaimSignals())

	mon := monitor.New(c.Cfg.NICBandwidth)
	for _, p := range c.Providers {
		mon.Register(monitor.KindProvider, p.Addr().Host(), p.MonitorSample)
	}
	for i := range c.VMAddrs() {
		i := i
		mon.Register(monitor.KindVMShard, fmt.Sprintf("shard-%d", i), func() metrics.RegistrySnapshot {
			// ShardVM, not VMs[i]: failover swaps the slot concurrently.
			vm := c.ShardVM(i)
			if vm == nil {
				return metrics.RegistrySnapshot{}
			}
			return vm.MonitorSample()
		})
	}
	mon.Register(monitor.KindNamespace, "namespace", ns.MonitorSample)

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

func (d *Deployment) healthPingTimeout() time.Duration {
	if d.HealthPingTimeout > 0 {
		return d.HealthPingTimeout
	}
	return DefaultHealthPingTimeout
}

// Health checks every component and reports per-component verdicts
// with per-check latency: the namespace journal is open, every VM
// shard answers a cheap stats ping through the router (bounded by
// HealthPingTimeout), and (when flight is on) the watchdog has
// evaluated within two of its intervals. The /healthz endpoint serves
// this with a 503 on degradation.
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
	var iv time.Duration
	var fresh bool
	if d.Watchdog != nil {
		iv, fresh = d.Watchdog.Fresh()
	}
	switch {
	case iv == 0:
		rep.AddTimed("monitor", true, "watchdog unarmed (collect-on-demand)", time.Since(start))
	case fresh:
		rep.AddTimed("monitor", true, "", time.Since(start))
	default:
		rep.AddTimed("monitor", false, fmt.Sprintf("watchdog stale (no evaluation within %v)", 2*iv), time.Since(start))
	}
	return rep
}

// FlightConfig tunes what EnableFlight wires. Zero fields take the
// defaults.
type FlightConfig struct {
	// Interval is the watchdog's cadence: every tick collects the
	// monitor and evaluates the rules (default 1 s).
	Interval time.Duration
	// FireAfter is how many consecutive breaches fire an alert
	// (default 2).
	FireAfter int
	// SlowFloor is the root-span duration the tail sampler always
	// keeps (default 50 ms).
	SlowFloor time.Duration
}

// defaultFlightInterval is the watchdog cadence of a FlightConfig that
// names none.
const defaultFlightInterval = time.Second

// EnableFlight opens a flight recorder at path, attaches the tail
// sampler to the process-wide span collector, and arms an SLO watchdog
// (flight.StandardRules, health check wired to Deployment.Health): each
// of its ticks collects the monitor and evaluates the rules, and
// snapshots/health transitions/alerts land in the flight log. Close
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
	if cfg.Interval <= 0 {
		cfg.Interval = defaultFlightInterval
	}
	d.Flight = rec
	d.sampler = flight.AttachSampler(obs.Spans, rec, cfg.SlowFloor)
	d.Watchdog = flight.NewWatchdog(d.Monitor, rec, flight.StandardRules(), cfg.FireAfter, d.Health)
	d.Watchdog.Arm(cfg.Interval)
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
	src := d.Monitor.Register(monitor.KindClient, host, func() metrics.RegistrySnapshot {
		rs := bc.ReadStats().Snapshot()
		s := metrics.RegistrySnapshot{
			Counters: map[string]uint64{
				"cache_hits":        rs.Hits,
				"cache_misses":      rs.Misses,
				"provider_fetches":  rs.ProviderFetches,
				"provider_failures": rs.ProviderFailures,
			},
			Gauges: map[string]float64{"inflight_writes": float64(bc.InFlight())},
		}
		if pc := bc.PageCache(); pc != nil {
			s.Gauges["cache_bytes"] = float64(pc.Bytes())
		}
		return s
	})
	fs.onClose = src.Unregister
	return fs
}

// Close stops the namespace manager and the collector (the BlobSeer
// cluster is owned by the caller).
func (d *Deployment) Close() error {
	// The watchdog stays set once closed: Health, which a scrape may
	// still be running, reads it, and a closed one reports unarmed.
	if d.Watchdog != nil {
		d.Watchdog.Close()
	}
	if d.sampler != nil {
		d.sampler.Close()
		d.sampler = nil
	}
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
