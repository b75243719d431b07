package experiments

import (
	"fmt"
	"strings"

	"blobseer/internal/dfs"
	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
	"blobseer/internal/workload"
)

// GCResult shows that the lifecycle subsystem bounds storage that the
// paper's keep-every-version model grows without limit, under the two
// reclamation paths production append-heavy deployments hit:
//
//   - Overwrite (retention): concurrent writers keep rewriting a shared
//     BLOB's regions (checkpoint-style). Every write publishes a new
//     version; under RetainLatest(2) the collector retires old versions
//     and deletes the pages they alone can reach, so provider storage
//     plateaus near the working set, while the no-GC baseline grows by
//     one working set per round.
//   - Rotate (deletion): appenders fill a fresh log file per round and
//     delete the round-2 file — log rotation. With GC, "rm" retires the
//     backing BLOB and frees its pages; without, it merely drops the
//     namespace entry and storage grows linearly (the pre-GC repo
//     behaviour).
type GCResult struct {
	OverwriteGC   *Series // x = round, y = provider MiB
	OverwriteNoGC *Series
	RotateGC      *Series
	RotateNoGC    *Series

	// OverwriteBoundRatio is final GC-run provider bytes over the
	// overwrite working set (one full region set): the acceptance bound
	// is <= 2 plus in-flight slack, versus rounds× for the baseline.
	OverwriteBoundRatio float64
	// RotateBoundRatio is the same ratio for the rotation workload
	// (working set = the two live files).
	RotateBoundRatio float64
	// Collector is how much each gc_* process counter (gc_passes,
	// gc_pages_reclaimed, ...) grew over the scenario.
	Collector map[string]uint64
}

// gcRounds/gcWriters size the sustained workload; regions are
// gcRegionPages pages per writer.
const (
	gcRounds      = 8
	gcWriters     = 4
	gcRegionPages = 4
)

// GC runs the storage-lifecycle scenario: both workloads, each with
// and without the collector.
func GC(cfg Config) (*GCResult, error) {
	cfg = cfg.withDefaults()
	res := &GCResult{
		OverwriteGC:   &Series{Name: "overwrite retain=2", XLabel: "round", YLabel: "provider MiB"},
		OverwriteNoGC: &Series{Name: "overwrite no-gc", XLabel: "round", YLabel: "provider MiB"},
		RotateGC:      &Series{Name: "rotate gc", XLabel: "round", YLabel: "provider MiB"},
		RotateNoGC:    &Series{Name: "rotate no-gc", XLabel: "round", YLabel: "provider MiB"},
	}

	before := metrics.Default.Snapshot().Counters
	for _, gcOn := range []bool{true, false} {
		if err := gcOverwriteRun(cfg, gcOn, res); err != nil {
			return nil, fmt.Errorf("gc overwrite (gc=%v): %w", gcOn, err)
		}
		if err := gcRotateRun(cfg, gcOn, res); err != nil {
			return nil, fmt.Errorf("gc rotate (gc=%v): %w", gcOn, err)
		}
	}
	res.Collector = countersSince(before, "gc_")
	return res, nil
}

// gcOverwriteRun drives the retention path at the BLOB layer: gcWriters
// concurrent clients each rewrite their own region every round.
func gcOverwriteRun(cfg Config, gcOn bool, res *GCResult) error {
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	env.deploy.GC.SetEnabled(gcOn)

	hosts := env.cluster.ProviderHosts()
	ps := cfg.BlockSize
	region := uint64(gcRegionPages) * ps

	creator := env.cluster.Client(hosts[0])
	defer creator.Close()
	bl, err := creator.Create(ctx, ps)
	if err != nil {
		return err
	}
	if gcOn {
		if err := bl.SetRetention(ctx, 2); err != nil {
			return err
		}
	}

	series := res.OverwriteNoGC
	if gcOn {
		series = res.OverwriteGC
	}
	for round := 0; round < gcRounds; round++ {
		err := fanOut(gcWriters, func(w int) (func() error, error) {
			c := env.cluster.Client(hosts[w%len(hosts)])
			data := make([]byte, region)
			pagestore.Fill(data, uint64(round*gcWriters+w+1))
			return func() error {
				defer c.Close()
				_, err := c.Handle(bl.ID(), ps).WriteAt(ctx, data, uint64(w)*region)
				return err
			}, nil
		})
		if err != nil {
			return err
		}
		if gcOn {
			if _, err := env.deploy.GC.RunOnce(ctx); err != nil {
				return err
			}
		}
		series.Add(float64(round+1), float64(env.cluster.ProviderBytes())/(1<<20), 0)
	}
	if gcOn {
		working := float64(gcWriters) * float64(region)
		res.OverwriteBoundRatio = float64(env.cluster.ProviderBytes()) / working
	}
	return nil
}

// gcRotateRun drives the deletion path at the file-system layer: each
// round appends a fresh log file and deletes the round-2 one.
func gcRotateRun(cfg Config, gcOn bool, res *GCResult) error {
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	env.deploy.GC.SetEnabled(gcOn)

	fs := env.mount(0)
	ps := int(cfg.BlockSize)
	series := res.RotateNoGC
	if gcOn {
		series = res.RotateGC
	}
	for round := 0; round < gcRounds; round++ {
		path := fmt.Sprintf("/gc/rot-%03d", round)
		text := workload.Text(gcRegionPages*ps, cfg.Seed+int64(round))
		if err := dfs.WriteFile(ctx, fs, path, []byte(text)); err != nil {
			return err
		}
		if round >= 2 {
			if err := fs.Delete(ctx, fmt.Sprintf("/gc/rot-%03d", round-2)); err != nil {
				return err
			}
		}
		if gcOn {
			// Deterministic sampling point: the delete already kicked the
			// collector; RunOnce serializes behind any in-flight pass and
			// guarantees the marked garbage is flushed before we measure.
			if _, err := env.deploy.GC.RunOnce(ctx); err != nil {
				return err
			}
		}
		series.Add(float64(round+1), float64(env.cluster.ProviderBytes())/(1<<20), 0)
	}
	if gcOn {
		working := 2 * float64(gcRegionPages) * float64(ps)
		res.RotateBoundRatio = float64(env.cluster.ProviderBytes()) / working
	}
	return nil
}

// countersSince returns how much each process counter whose name starts
// with prefix grew since before, the Counters of a snapshot taken when
// the run started.
func countersSince(before map[string]uint64, prefix string) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range metrics.Default.Snapshot().Counters {
		if strings.HasPrefix(k, prefix) {
			out[k] = v - before[k]
		}
	}
	return out
}
