package blobseer

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blobseer/internal/apps/wordcount"
	"blobseer/internal/bsfs"
	"blobseer/internal/cache"
	"blobseer/internal/dfs"
	"blobseer/internal/flight"
	"blobseer/internal/mapreduce"
	"blobseer/internal/metrics"
	"blobseer/internal/obshttp"
	"blobseer/internal/shuffle"
)

// sized is the Options of a small test deployment.
func sized(providers, metaProviders int, blockSize uint64) Options {
	var o Options
	o.Providers, o.MetaProviders, o.BlockSize = providers, metaProviders, blockSize
	return o
}

func newTestCluster(t *testing.T, o Options) *Cluster {
	t.Helper()
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOptionsReachTheirLayer sets every knob through Options and reads
// it back where it takes effect: the mount for depths and cache, the
// BlobSeer cluster for shards, replication, retention and journals.
func TestOptionsReachTheirLayer(t *testing.T) {
	const block = 256
	journal := t.TempDir()
	cases := []struct {
		name  string
		set   func(o *Options)
		check func(t *testing.T, c *Cluster, m *Mount)
	}{
		{"zero value", func(o *Options) {}, func(t *testing.T, c *Cluster, m *Mount) {
			want := bsfs.Tuning{BlockSize: block, WriteDepth: bsfs.DefaultWriteDepth, ReadDepth: bsfs.DefaultReadDepth}
			if got := m.Tuning(); got != want {
				t.Errorf("tuning = %+v, want %+v", got, want)
			}
			if pc := m.BlobClient().PageCache(); pc == nil || pc.Budget() != cache.DefaultBudget {
				t.Errorf("page cache = %v, want the default budget", pc)
			}
			if n := len(c.Blob.VMAddrs()); n != 1 {
				t.Errorf("vm shards = %d, want 1", n)
			}
		}},
		{"depths", func(o *Options) { o.WriteDepth, o.ReadDepth = 7, 3 }, func(t *testing.T, c *Cluster, m *Mount) {
			if got := m.Tuning(); got.WriteDepth != 7 || got.ReadDepth != 3 {
				t.Errorf("tuning = %+v, want depths 7/3", got)
			}
		}},
		{"cache budget", func(o *Options) { o.CacheBytes = 1 << 20 }, func(t *testing.T, c *Cluster, m *Mount) {
			if pc := m.BlobClient().PageCache(); pc == nil || pc.Budget() != 1<<20 {
				t.Errorf("page cache = %v, want a 1 MiB budget", pc)
			}
		}},
		{"cache off", func(o *Options) { o.CacheBytes, o.ReadDepth = -1, 8 }, func(t *testing.T, c *Cluster, m *Mount) {
			if m.BlobClient().PageCache() != nil {
				t.Error("page cache present despite CacheBytes < 0")
			}
			if got := m.Tuning().ReadDepth; got != 0 {
				t.Errorf("read depth = %d without a cache to stage through, want 0", got)
			}
			raw := c.BlobClient("raw")
			defer raw.Close()
			if raw.PageCache() != nil {
				t.Error("raw client has a page cache despite CacheBytes < 0")
			}
		}},
		{"vm shards", func(o *Options) { o.VMShards = 3 }, func(t *testing.T, c *Cluster, m *Mount) {
			if n := len(c.Blob.VMAddrs()); n != 3 {
				t.Errorf("vm shards = %d, want 3", n)
			}
		}},
		{"page replicas", func(o *Options) { o.PageReplicas = 2 }, func(t *testing.T, c *Cluster, m *Mount) {
			if err := dfs.WriteFile(benchCtx, m, "/one-block", make([]byte, block)); err != nil {
				t.Fatal(err)
			}
			holders := 0
			for _, p := range c.Blob.Providers {
				holders += p.Store().Len()
			}
			if holders != 2 {
				t.Errorf("one page stored %d times, want 2", holders)
			}
		}},
		{"retention", func(o *Options) { o.Retain = 2 }, func(t *testing.T, c *Cluster, m *Mount) {
			for i := 0; i < 5; i++ {
				w, err := m.Append(benchCtx, "/log")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(make([]byte, block)); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.FS.GC.RunOnce(benchCtx); err != nil {
				t.Fatal(err)
			}
			vers, err := m.History(benchCtx, "/log")
			if err != nil || len(vers) != 2 {
				t.Errorf("history after a GC pass = %d versions (err %v), want 2", len(vers), err)
			}
		}},
		{"journal dir", func(o *Options) { o.JournalDir = journal }, func(t *testing.T, c *Cluster, m *Mount) {
			for _, name := range []string{"vmanager-0.log", "namespace.log"} {
				if _, err := os.Stat(filepath.Join(journal, name)); err != nil {
					t.Errorf("journal %s: %v", name, err)
				}
			}
		}},
		{"deployment", func(o *Options) { o.HealthPingTimeout = time.Minute }, func(t *testing.T, c *Cluster, m *Mount) {
			if c.FS.HealthPingTimeout != time.Minute {
				t.Errorf("deployment config = %+v", c.FS.DeployConfig)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := sized(4, 2, block)
			tc.set(&o)
			c := newTestCluster(t, o)
			m := c.Mount("node-000")
			defer m.Close()
			tc.check(t, c, m)
		})
	}
}

// TestFlightPathAloneEvaluatesRules: a cluster built with nothing but
// FlightPath must run its watchdog with nobody polling `top` or
// /cluster — the snapshot events the watchdog's ticks leave in the
// flight log are the evidence.
func TestFlightPathAloneEvaluatesRules(t *testing.T) {
	o := sized(2, 2, 256)
	o.FlightPath = filepath.Join(t.TempDir(), "flight.log")
	c := newTestCluster(t, o)
	if iv, _ := c.FS.Watchdog.Fresh(); iv == 0 {
		t.Fatal("FlightPath left the watchdog unarmed: its rules would never run")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		evs, err := c.FS.Flight.Replay()
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Kind == flight.KindSnapshot {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot event within 10s of boot (watchdog evals: %d)", c.FS.Watchdog.Evals())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClosedComponentsLeaveTheRegistry boots and closes whole
// deployments in one process, the way tests and experiment sweeps do:
// the process counters must keep exactly what each closed mount and
// collector counted.
func TestClosedComponentsLeaveTheRegistry(t *testing.T) {
	const cycles = 5
	before := metrics.Default.Snapshot().Counters
	var want metrics.ReadSnapshot // what the closed mounts counted, all cycles
	for i := 0; i < cycles; i++ {
		c, err := NewCluster(sized(2, 2, 256))
		if err != nil {
			t.Fatal(err)
		}
		m := c.Mount("node-000")
		if err := dfs.WriteFile(benchCtx, m, "/f", make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, err := dfs.ReadAll(benchCtx, m, "/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.FS.GC.RunOnce(benchCtx); err != nil {
			t.Fatal(err)
		}
		rs := m.BlobClient().ReadStats()
		m.Close()
		c.Close()
		final := rs.Snapshot()
		want.Hits += final.Hits
		want.Misses += final.Misses
	}
	after := metrics.Default.Snapshot().Counters
	if want.Misses == 0 {
		t.Fatal("the workload read nothing: the test proves nothing")
	}
	if got := after["read_cache_misses"] - before["read_cache_misses"]; got != want.Misses {
		t.Errorf("read_cache_misses grew by %d over %d cycles, want the mounts' %d", got, cycles, want.Misses)
	}
	if got := after["read_cache_hits"] - before["read_cache_hits"]; got != want.Hits {
		t.Errorf("read_cache_hits grew by %d, want the mounts' %d", got, want.Hits)
	}
	if got := after["gc_passes"] - before["gc_passes"]; got != cycles {
		t.Errorf("gc_passes grew by %d, want %d", got, cycles)
	}
}

// TestCounterExportNamesAreStable scrapes /metrics after one write, one
// read, one GC pass and one blob-shuffle job: every subsystem counter
// name dashboards already query is still exported, typed as a counter.
func TestCounterExportNamesAreStable(t *testing.T) {
	c := newTestCluster(t, sized(4, 3, 256))
	m := c.Mount("node-000")
	defer m.Close()
	if err := dfs.WriteFile(benchCtx, m, "/in/t", []byte("a b a\nb c\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := dfs.ReadAll(benchCtx, m, "/in/t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FS.GC.RunOnce(benchCtx); err != nil {
		t.Fatal(err)
	}
	fw, err := c.NewFramework()
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	job := wordcount.Job([]string{"/in/t"}, "/out", 2, mapreduce.SharedAppend)
	job.Shuffle = shuffle.Blob
	if _, err := fw.Run(benchCtx, job); err != nil {
		t.Fatal(err)
	}

	ms, err := obshttp.Serve("127.0.0.1:0", obshttp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"read_cache_hits", "read_cache_misses", "read_readahead_pages",
		"read_cache_evictions", "read_provider_fetches", "read_provider_failures",
		"gc_passes", "gc_versions_collected", "gc_pages_reclaimed", "gc_bytes_reclaimed",
		"shuffle_segments_appended", "shuffle_segments_fetched", "shuffle_segments_recovered",
	} {
		if metric := "blobseer_" + name + "_total"; !strings.Contains(string(body), "# TYPE "+metric+" counter\n"+metric+" ") {
			t.Errorf("/metrics does not export %s as a counter", metric)
		}
	}
}
