package bsfs

import (
	"path/filepath"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/monitor"
	"blobseer/internal/transport"
)

// TestDeploymentMonitorWiring pins what Deploy registers on the
// monitor: one source per provider, per VM shard, and the namespace
// manager — and that writes through a mount feed the provider
// counters.
func TestDeploymentMonitorWiring(t *testing.T) {
	d := newDeployment(t, 1024)
	fs := mount(t, d, "cli")

	data := pattern(3, 6*1024) // six pages
	if err := dfs.WriteFile(ctx, fs, "/m/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(ctx, fs, "/m/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("read %d bytes", len(got))
	}

	d.Monitor.CollectOnce()
	snap := d.Monitor.Snapshot()
	kinds := make(map[string]int)
	for _, c := range snap.Components {
		kinds[c.Kind]++
	}
	if kinds[monitor.KindProvider] != 6 || kinds[monitor.KindVMShard] != 1 || kinds[monitor.KindNamespace] != 1 {
		t.Fatalf("component kinds = %v", kinds)
	}
	if kinds[monitor.KindClient] != 1 {
		t.Fatalf("mount did not register a client source: %v", kinds)
	}

	var pages float64
	for _, c := range snap.Components {
		if c.Kind == monitor.KindProvider {
			pages += c.Gauges["pages"]
		}
	}
	if pages < 6 {
		t.Errorf("providers report %v pages total, want >= 6", pages)
	}

	// Closing the mount unregisters its source.
	fs.Close()
	d.Monitor.CollectOnce()
	kinds = make(map[string]int)
	for _, c := range d.Monitor.Snapshot().Components {
		kinds[c.Kind]++
	}
	if kinds[monitor.KindClient] != 0 {
		t.Errorf("client source leaked after mount close: %v", kinds)
	}

	// A skewed read shows up where it lands: with a modelled NIC and no
	// page cache between reader and provider, re-reading one page of a
	// file spread over all six providers makes the read load imbalanced,
	// and the provider the monitor ranks hottest is the page's holder.
	t.Run("skewed read", func(t *testing.T) {
		d := newDeploymentOn(t, transport.NewMemNet(), blob.ClusterConfig{
			NICBandwidth: 1 << 20,
			ClientPolicy: blob.ClientPolicy{CacheBytes: -1},
		}, 1024)
		fs := mount(t, d, "cli")
		if err := dfs.WriteFile(ctx, fs, "/m/skew", pattern(5, 6*1024)); err != nil {
			t.Fatal(err)
		}
		d.Monitor.CollectOnce() // primes the rate trackers
		if _, err := dfs.ReadAll(ctx, fs, "/m/skew"); err != nil {
			t.Fatal(err)
		}
		// A reader's one-block view would serve an immediately repeated
		// page itself, so every hot read opens its own reader.
		const hotPage = 4
		buf := make([]byte, 1024)
		for i := 0; i < 20; i++ {
			f, err := fs.Open(ctx, "/m/skew")
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.ReadAt(buf, hotPage*1024)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		d.Monitor.CollectOnce()
		snap := d.Monitor.Snapshot()

		if snap.ReplicaImbalance <= 1 {
			t.Errorf("replica imbalance = %.2f, want > 1 under a skewed read", snap.ReplicaImbalance)
		}
		var hottest string
		var bestRate, maxUtil float64
		for _, c := range snap.Components {
			if c.Kind != monitor.KindProvider {
				continue
			}
			if c.Utilization > maxUtil {
				maxUtil = c.Utilization
			}
			if r := c.Rates["read_bytes_per_sec"]; hottest == "" || r > bestRate {
				hottest, bestRate = c.Name, r
			}
		}
		if maxUtil <= 0 {
			t.Errorf("max utilization = %v, want > 0 with a modelled NIC", maxUtil)
		}
		locs, err := fs.BlockLocations(ctx, "/m/skew", hotPage*1024, 1024)
		if err != nil {
			t.Fatal(err)
		}
		holder := false
		for _, l := range locs {
			for _, h := range l.Hosts {
				holder = holder || h == hottest
			}
		}
		if !holder {
			t.Errorf("hottest provider %q does not hold the hot page (holders %+v)", hottest, locs)
		}
	})
}

// TestDeploymentHealth pins the component health checks: a fresh
// deployment is healthy with an unarmed-watchdog note; enabling flight
// arms the watchdog and makes the freshness check real; killing a VM
// shard degrades the report and names the shard.
func TestDeploymentHealth(t *testing.T) {
	d := newDeployment(t, 1024)

	rep := d.Health(ctx)
	if !rep.Healthy {
		t.Fatalf("fresh deployment unhealthy: %+v", rep)
	}
	byName := make(map[string]monitor.ComponentHealth)
	for _, c := range rep.Components {
		byName[c.Component] = c
	}
	if !byName["namespace"].Healthy || !byName["vmshard-0"].Healthy {
		t.Fatalf("components = %+v", rep.Components)
	}
	mon := byName["monitor"]
	if !mon.Healthy || mon.Detail == "" {
		t.Fatalf("unarmed monitor health = %+v (want healthy with a detail note)", mon)
	}

	// Armed and evaluating: the freshness check passes for real.
	if err := d.EnableFlight(filepath.Join(t.TempDir(), "flight.log"), FlightConfig{Interval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Watchdog.Evals() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Monitor.Collections() == 0 {
		t.Fatal("armed watchdog never collected the monitor")
	}
	rep = d.Health(ctx)
	for _, c := range rep.Components {
		if c.Component == "monitor" && (!c.Healthy || c.Detail != "") {
			t.Fatalf("armed monitor health = %+v", c)
		}
	}

	// Kill the only VM shard: the stats ping times out and the report
	// degrades, naming the shard.
	if err := d.Blob.KillVM(0); err != nil {
		t.Fatal(err)
	}
	rep = d.Health(ctx)
	if rep.Healthy {
		t.Fatal("report healthy with a killed VM shard")
	}
	found := false
	for _, c := range rep.Components {
		if c.Component == "vmshard-0" {
			found = true
			if c.Healthy || c.Detail == "" {
				t.Fatalf("killed shard health = %+v", c)
			}
		}
	}
	if !found {
		t.Fatal("no vmshard-0 verdict in degraded report")
	}
}
