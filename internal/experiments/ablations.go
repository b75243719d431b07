package experiments

import (
	"fmt"

	"blobseer/internal/blob"
)

// AblationPlacement compares provider-allocation strategies on the
// Figure 3 workload: round-robin spreads pages
// perfectly, random suffers balls-into-bins hotspots, least-loaded
// sits between.
func AblationPlacement(cfg Config, clients []int) ([]*Series, error) {
	cfg = cfg.withDefaults()
	strategies := []blob.Strategy{
		&blob.RoundRobin{},
		blob.NewRandomK(cfg.Seed + 1),
		&blob.LeastLoaded{},
	}
	var out []*Series
	for _, s := range strategies {
		c := cfg
		c.Strategy = s
		series, err := Fig3(c, clients)
		if err != nil {
			return nil, fmt.Errorf("placement %s: %w", s.Name(), err)
		}
		series.Name = s.Name()
		out = append(out, series)
	}
	return out, nil
}

// AblationPageSize sweeps the page/chunk size on the Figure 3 workload
// at a fixed client count (Abl 3): larger pages amortize the fixed
// per-append costs (version assignment, metadata commit).
func AblationPageSize(cfg Config, sizes []uint64, n int) (*Series, error) {
	cfg = cfg.withDefaults()
	series := &Series{
		Name:   fmt.Sprintf("append, %d clients", n),
		XLabel: "page size (KiB)",
		YLabel: "mean per-append MB/s",
	}
	for _, size := range sizes {
		c := cfg
		c.BlockSize = size
		env, err := newBSFSEnv(c)
		if err != nil {
			return nil, err
		}
		samples, err := fig3Point(env, c, 0, n, nil)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("page size %d: %w", size, err)
		}
		series.AddSamples(float64(size)/1024, samples)
	}
	return series, nil
}

// AblationLockedAppend contrasts BlobSeer's versioning-based
// concurrency control with a global append lock (Abl 1): the lock
// models a lease-based single-writer design (what HDFS appends would
// look like), whose per-client throughput collapses as 1/N while
// versioning degrades only gently.
func AblationLockedAppend(cfg Config, clients []int) (versioned, locked *Series, err error) {
	cfg = cfg.withDefaults()
	versioned, err = Fig3(cfg, clients)
	if err != nil {
		return nil, nil, err
	}
	versioned.Name = "versioning (BlobSeer)"
	locked, err = fig3(cfg, clients, make(chan struct{}, 1))
	if err != nil {
		return nil, nil, fmt.Errorf("locked: %w", err)
	}
	locked.Name = "global append lock"
	return versioned, locked, nil
}
