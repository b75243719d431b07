package metrics

import "sync/atomic"

// ReadStats is one client's view of the read path: page-cache hits and
// misses, readahead activity, eviction pressure, and provider fetch
// traffic and failures. Every count also adds to a process counter in
// Default (read_cache_hits, ...), so the export plane sees all clients
// without knowing any of them. All methods are safe for concurrent use
// and cheap enough to call on every page access.
type ReadStats struct {
	hits             atomic.Uint64
	misses           atomic.Uint64
	readahead        atomic.Uint64
	evictions        atomic.Uint64
	providerFetches  atomic.Uint64
	providerFailures atomic.Uint64
}

// The process-wide read counters every ReadStats adds to.
var (
	readHits             = Default.Counter("read_cache_hits")
	readMisses           = Default.Counter("read_cache_misses")
	readReadahead        = Default.Counter("read_readahead_pages")
	readEvictions        = Default.Counter("read_cache_evictions")
	readProviderFetches  = Default.Counter("read_provider_fetches")
	readProviderFailures = Default.Counter("read_provider_failures")
)

// AddHit counts one page served from the cache (including requests
// de-duplicated onto an in-flight fetch).
func (s *ReadStats) AddHit() { s.hits.Add(1); readHits.Add(1) }

// AddMiss counts one page that had to be fetched from a provider.
func (s *ReadStats) AddMiss() { s.misses.Add(1); readMisses.Add(1) }

// AddReadahead counts n pages scheduled by the readahead engine.
func (s *ReadStats) AddReadahead(n uint64) { s.readahead.Add(n); readReadahead.Add(n) }

// AddEviction counts one page evicted to stay within the cache budget.
func (s *ReadStats) AddEviction() { s.evictions.Add(1); readEvictions.Add(1) }

// AddProviderFetch counts one GetPage RPC issued to a provider
// (successful or not).
func (s *ReadStats) AddProviderFetch() { s.providerFetches.Add(1); readProviderFetches.Add(1) }

// AddProviderFailure counts one failed page fetch (the reader goes on
// to the page's next replica).
func (s *ReadStats) AddProviderFailure() { s.providerFailures.Add(1); readProviderFailures.Add(1) }

// ReadSnapshot is a point-in-time copy of ReadStats.
type ReadSnapshot struct {
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Readahead        uint64 `json:"readahead"`
	Evictions        uint64 `json:"evictions"`
	ProviderFetches  uint64 `json:"provider_fetches"`
	ProviderFailures uint64 `json:"provider_failures"`
}

// Snapshot returns a consistent-enough copy of the counters for tests
// and reporting. Counters are read individually, so a snapshot taken
// while readers run may be skewed by in-flight operations.
func (s *ReadStats) Snapshot() ReadSnapshot {
	return ReadSnapshot{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Readahead:        s.readahead.Load(),
		Evictions:        s.evictions.Load(),
		ProviderFetches:  s.providerFetches.Load(),
		ProviderFailures: s.providerFailures.Load(),
	}
}
