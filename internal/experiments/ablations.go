package experiments

import (
	"fmt"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
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
		YLabel: "avg throughput (MB/s)",
	}
	for _, size := range sizes {
		c := cfg
		c.BlockSize = size
		env, err := newBSFSEnv(c)
		if err != nil {
			return nil, err
		}
		sum, err := fig3Point(env, c, 0, n)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("page size %d: %w", size, err)
		}
		series.Add(float64(size)/1024, sum.MeanMBps, (sum.P95MBps-sum.P5MBps)/2)
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

	env, err := newBSFSEnv(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer env.Close()
	locked = &Series{
		Name:   "global append lock",
		XLabel: "clients",
		YLabel: "avg throughput (MB/s)",
	}
	for pi, n := range clients {
		sum, err := lockedPoint(env, cfg, pi, n)
		if err != nil {
			return nil, nil, fmt.Errorf("locked N=%d: %w", n, err)
		}
		locked.Add(float64(n), sum.MeanMBps, (sum.P95MBps-sum.P5MBps)/2)
		env.closeMounts()
	}
	return versioned, locked, nil
}

// lockedPoint is fig3Point with every append serialized by one lock.
func lockedPoint(env *bsfsEnv, cfg Config, point, n int) (Summary, error) {
	path := freshPath("locked", point)
	setup := env.mount(0)
	if err := dfs.WriteFile(ctx, setup, path, nil); err != nil {
		return Summary{}, err
	}
	clients := make([]*appendClient, n)
	for i := range clients {
		clients[i] = &appendClient{fs: env.mount(i), path: path, data: chunk(cfg, i)}
	}
	var gate sync.Mutex
	var meter Meter
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := runAppenders(clients, &meter, &gate); err != nil {
			return Summary{}, err
		}
	}
	return Summarize(meter.Samples()), nil
}
