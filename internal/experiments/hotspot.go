package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
)

// The hotspot scenario validates the cluster monitor's page-heat
// tracking against ground truth: a Zipf-skewed read workload over more
// distinct pages than the heat sketch has counters, so the bounded
// sketch must rank under eviction pressure. Acceptance: the sketch's
// top-10 hot pages match the true top-10 with precision >= 0.9, and
// the provider the monitor reports as hottest (highest read rate /
// NIC utilization) actually holds one of the truly hot pages.
const (
	// hotspotPages is the distinct-page working set; it is double
	// monitor.DefaultHeatCapacity on purpose, so roughly half the pages
	// fight over sketch counters and the heavy hitters must survive
	// churn from the cold tail.
	hotspotPages = 2 * monitor.DefaultHeatCapacity
	// hotspotAccesses is the total page reads issued across readers.
	hotspotAccesses = 4000
	// hotspotReaders is the concurrent reader-mount count.
	hotspotReaders = 16
	// hotspotTopK is the hot-set size precision is scored on.
	hotspotTopK = 10
	// hotspotZipfS is the Zipf skew exponent (s > 1 concentrates mass:
	// the top page draws ~20% of all accesses at s = 1.2).
	hotspotZipfS = 1.2
	// hotspotPageSize overrides cfg.BlockSize: heat ranking counts page
	// touches, not bytes, and small pages keep the skewed read phase —
	// serialized on the hot pages' holder NICs — down to seconds.
	hotspotPageSize = 32 << 10
)

// HotspotResult reports how well the monitor's heat sketch and
// per-provider rates located a synthetic hotspot.
type HotspotResult struct {
	// Pages, Accesses and Readers echo the workload shape.
	Pages    int
	Accesses int
	Readers  int
	// Precision is |sketch top-10 ∩ true top-10| / 10.
	Precision float64
	// TrueTop and SketchTop are the page indices, hottest first.
	TrueTop   []uint64
	SketchTop []uint64
	// ReplicaImbalance is the monitor's max/mean provider read-rate
	// ratio over the workload window (> 1 under skew).
	ReplicaImbalance float64
	// MaxUtilization is the hottest provider's modeled NIC utilization.
	MaxUtilization float64
	// HotProvider is the provider host the monitor ranks hottest by
	// read rate; HotProviderIsHolder reports whether it actually holds
	// a replica of one of the true top-10 pages.
	HotProvider         string
	HotProviderIsHolder bool
}

// Hotspot runs the skewed-read workload and scores the monitor's view
// of it. The returned series plot sketch weight and true access count
// by hot-set rank, for the BENCH report.
func Hotspot(cfg Config) (*HotspotResult, []*metrics.Series, error) {
	cfg = cfg.withDefaults()
	cfg.BlockSize = hotspotPageSize
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer env.Close()

	const path = "/bench/hotspot/file"
	if err := preload(env, cfg, path, hotspotPages); err != nil {
		return nil, nil, err
	}
	env.closeMounts()

	// Pre-generate the access plan so ground truth is exact: a Zipf
	// draw mapped through a random permutation (hot pages land anywhere
	// in the file, not at its head), dealt round-robin to readers. A
	// reader's one-block view means an immediately repeated page would
	// not reach the provider again, so consecutive duplicates are
	// steered to another reader (or dropped): every planned access is
	// one real page fetch, and counting the plan counts the fetches.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	zipf := rand.NewZipf(rng, hotspotZipfS, 1, hotspotPages-1)
	perm := rng.Perm(hotspotPages)
	seqs := make([][]uint64, hotspotReaders)
	last := make([]int64, hotspotReaders)
	for i := range last {
		last[i] = -1
	}
	counts := make(map[uint64]uint64, hotspotPages)
	for k := 0; k < hotspotAccesses; k++ {
		page := uint64(perm[zipf.Uint64()])
		r := k % hotspotReaders
		for try := 0; try < hotspotReaders && last[r] == int64(page); try++ {
			r = (r + 1) % hotspotReaders
		}
		if last[r] == int64(page) {
			continue
		}
		seqs[r] = append(seqs[r], page)
		last[r] = int64(page)
		counts[page]++
	}
	trueTop := topCounted(counts, hotspotTopK)

	// Prime the rate EWMAs, run the readers, then collect again so the
	// per-provider rates cover exactly the workload window.
	mon := env.deploy.Monitor
	mon.CollectOnce()

	var wg sync.WaitGroup
	errs := make(chan error, hotspotReaders)
	for r := 0; r < hotspotReaders; r++ {
		if len(seqs[r]) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := env.mount(r).Open(ctx, path)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			buf := make([]byte, cfg.BlockSize)
			for _, page := range seqs[r] {
				if _, err := f.ReadAt(buf, int64(page)*int64(cfg.BlockSize)); err != nil {
					errs <- fmt.Errorf("read page %d: %w", page, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, nil, err
	}

	mon.CollectOnce()
	snap := mon.Snapshot(hotspotTopK)

	res := &HotspotResult{
		Pages:            hotspotPages,
		Accesses:         hotspotAccesses,
		Readers:          hotspotReaders,
		TrueTop:          trueTop,
		ReplicaImbalance: snap.ReplicaImbalance,
	}
	for _, e := range snap.HotReads {
		res.SketchTop = append(res.SketchTop, e.Page)
	}
	res.Precision = overlap(res.SketchTop, trueTop, hotspotTopK)

	// The monitor's hottest provider should be a holder of a truly hot
	// page: rank providers by read rate, then check against the block
	// locations of the true top-10.
	holders := make(map[string]bool)
	loc := env.mount(0)
	for _, page := range trueTop {
		locs, err := loc.BlockLocations(ctx, path, page*cfg.BlockSize, cfg.BlockSize)
		if err != nil {
			return nil, nil, err
		}
		for _, l := range locs {
			for _, h := range l.Hosts {
				holders[h] = true
			}
		}
	}
	env.closeMounts()
	rateKey := "read_bytes_per_sec"
	var bestRate float64
	for _, c := range snap.Components {
		if c.Kind != monitor.KindProvider {
			continue
		}
		if c.Utilization > res.MaxUtilization {
			res.MaxUtilization = c.Utilization
		}
		if res.HotProvider == "" || c.Rates[rateKey] > bestRate {
			res.HotProvider, bestRate = c.Name, c.Rates[rateKey]
		}
	}
	res.HotProviderIsHolder = holders[res.HotProvider]

	sketch := &metrics.Series{Name: "sketch heat", XLabel: "rank", YLabel: "decayed weight"}
	for i, e := range snap.HotReads {
		sketch.Add(float64(i+1), e.Weight, 0)
	}
	truth := &metrics.Series{Name: "true accesses", XLabel: "rank", YLabel: "count"}
	for i, page := range trueTop {
		truth.Add(float64(i+1), float64(counts[page]), 0)
	}
	return res, []*metrics.Series{sketch, truth}, nil
}

// topCounted returns the k highest-count pages, count descending with
// page index breaking ties, so ground truth is deterministic.
func topCounted(counts map[uint64]uint64, k int) []uint64 {
	pages := make([]uint64, 0, len(counts))
	for p := range counts {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool {
		if counts[pages[i]] != counts[pages[j]] {
			return counts[pages[i]] > counts[pages[j]]
		}
		return pages[i] < pages[j]
	})
	if len(pages) > k {
		pages = pages[:k]
	}
	return pages
}

// overlap scores |a ∩ b| / k.
func overlap(a, b []uint64, k int) float64 {
	in := make(map[uint64]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	hits := 0
	for _, x := range a {
		if in[x] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}
