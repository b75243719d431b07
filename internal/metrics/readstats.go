package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ReadStats is one client's view of the read path: page-cache hits and
// misses, readahead activity, eviction pressure, provider fetch traffic,
// and which provider endpoints failed fetches. Every count also adds to
// a process counter in Default (read_cache_hits, ...), so the export
// plane sees all clients without knowing any of them. All methods are
// safe for concurrent use and cheap enough to call on every page access.
type ReadStats struct {
	hits             atomic.Uint64
	misses           atomic.Uint64
	readahead        atomic.Uint64
	evictions        atomic.Uint64
	providerFetches  atomic.Uint64
	providerFailures atomic.Uint64

	mu     sync.Mutex
	failed map[string]uint64 // provider endpoint -> failed fetch count
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

// FailedOverflowKey is the bucket absorbing failures from endpoints
// beyond the per-endpoint tracking cap, so the failure map stays
// bounded under a long-lived client watching a churning provider set.
const FailedOverflowKey = "other"

// maxFailedEndpoints bounds the distinct endpoints tracked
// individually; the cap includes the overflow bucket.
const maxFailedEndpoints = 64

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

// NoteProviderFailure records one failed page fetch against the
// provider endpoint that served it, so operators can spot sick
// replicas; the endpoint map is this client's alone, the process
// counter carries only the count. At most maxFailedEndpoints distinct
// endpoints are tracked; failures from further endpoints land in the
// FailedOverflowKey bucket so the map cannot grow without bound under
// provider churn.
func (s *ReadStats) NoteProviderFailure(addr string) {
	s.providerFailures.Add(1)
	readProviderFailures.Add(1)
	s.mu.Lock()
	if s.failed == nil {
		s.failed = make(map[string]uint64)
	}
	if _, known := s.failed[addr]; !known && len(s.failed) >= maxFailedEndpoints-1 {
		addr = FailedOverflowKey
	}
	s.failed[addr]++
	s.mu.Unlock()
}

// ReadSnapshot is a point-in-time copy of ReadStats.
type ReadSnapshot struct {
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Readahead        uint64 `json:"readahead"`
	Evictions        uint64 `json:"evictions"`
	ProviderFetches  uint64 `json:"provider_fetches"`
	ProviderFailures uint64 `json:"provider_failures"`
	// FailedProviders maps provider endpoints to their failed fetch
	// counts (nil when no fetch ever failed).
	FailedProviders map[string]uint64 `json:"failed_providers,omitempty"`
}

// Snapshot returns a consistent-enough copy of the counters for tests
// and reporting. Counters are read individually, so a snapshot taken
// while readers run may be skewed by in-flight operations.
func (s *ReadStats) Snapshot() ReadSnapshot {
	snap := ReadSnapshot{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Readahead:        s.readahead.Load(),
		Evictions:        s.evictions.Load(),
		ProviderFetches:  s.providerFetches.Load(),
		ProviderFailures: s.providerFailures.Load(),
	}
	s.mu.Lock()
	if len(s.failed) > 0 {
		snap.FailedProviders = make(map[string]uint64, len(s.failed))
		for addr, n := range s.failed {
			snap.FailedProviders[addr] = n
		}
	}
	s.mu.Unlock()
	return snap
}

// FailedProviderAddrs returns the endpoints with at least one recorded
// fetch failure, sorted for stable output.
func (s ReadSnapshot) FailedProviderAddrs() []string {
	out := make([]string, 0, len(s.FailedProviders))
	for addr := range s.FailedProviders {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}
