// Package monitor is the cluster-scope introspection plane: where
// internal/metrics counts what one process did, monitor watches what
// the *deployment* is doing right now. Every component registers a
// stats source — data providers (bytes used, page read/write traffic),
// version-manager shards (journal growth, publish rates), the
// namespace manager, and client mounts (cache + read stats) — and each
// CollectOnce samples them, keeping each source's latest sample and
// deriving EWMA byte/IOPS rates, per-provider utilization
// against the modeled NIC, per-shard journal lag, and a
// replica-imbalance score across providers. The derived view is served
// on internal/obshttp's /cluster endpoint, rendered by `bsfsctl top`,
// and judged by the flight watchdog's rules.
//
// The monitor has no cadence of its own: it collects when asked, so an
// idle one costs nothing. The flight watchdog's ticker asks once per
// interval, and a scrape asks once per request; either pass is a few
// map walks over atomic counters. All methods are safe for concurrent
// use.
package monitor

import (
	"strings"
	"sync"
	"time"
)

// Sample is one point-in-time reading of a source's stats. Keys ending
// in "_total" are treated as monotonic counters and reduced to EWMA
// per-second rates; every other key is a gauge reported as-is.
type Sample map[string]float64

// Component kinds with derivation rules the collector knows about.
const (
	KindProvider  = "provider"  // read/write rates + NIC utilization
	KindVMShard   = "vmshard"   // journal growth + publish rates
	KindNamespace = "namespace" // entry counts + journal size
	KindClient    = "client"    // cache + read-path counters
)

// Well-known sample keys the collector derives from.
const (
	// KeyReadBytes / KeyWriteBytes are the provider byte counters that
	// drive utilization and the replica-imbalance score.
	KeyReadBytes  = "read_bytes_total"
	KeyWriteBytes = "write_bytes_total"
	// KeyJournalPending is the vmshard gauge reported as journal lag:
	// journal records not yet covered by a checkpoint.
	KeyJournalPending = "journal_pending"
)

// halfLife smooths rates: a burst fully registers within a few
// collections and an idle source's rate halves every half-life.
const halfLife = 5 * time.Second

// Source is one registered component. Unregister removes it (mount
// close); the handle is otherwise opaque.
type Source struct {
	m    *Monitor
	kind string
	name string
	fn   func() Sample

	// Collector-owned state, guarded by m.mu.
	rates   map[string]*ewma
	last    Sample
	lastT   time.Time
	samples int // collections that returned a sample
}

// Unregister removes the source from its monitor; safe to call twice.
func (s *Source) Unregister() {
	if s == nil || s.m == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, have := range m.sources {
		if have == s {
			m.sources = append(m.sources[:i], m.sources[i+1:]...)
			break
		}
	}
	s.m = nil
}

// Monitor collects registered sources.
type Monitor struct {
	// nicBandwidth is the modeled per-host NIC capacity in bytes/s that
	// provider utilization is computed against (0 = unknown;
	// utilization reads 0).
	nicBandwidth float64

	// now is injectable for deterministic rate/age tests.
	now func() time.Time

	mu          sync.Mutex
	sources     []*Source
	collections uint64
	lastCollect time.Time
}

// New returns a monitor whose provider utilization is judged against
// nicBandwidth bytes/s per host (0 = unknown). Deployments on a
// simnet-shaped transport pass the simnet bandwidth here.
func New(nicBandwidth float64) *Monitor {
	return &Monitor{nicBandwidth: nicBandwidth, now: time.Now}
}

// Register adds a stats source under a component kind and name and
// returns its handle (Unregister on component shutdown). Sources must
// be safe to call concurrently with the component's own operation.
func (m *Monitor) Register(kind, name string, fn func() Sample) *Source {
	s := &Source{
		m:     m,
		kind:  kind,
		name:  name,
		fn:    fn,
		rates: make(map[string]*ewma),
	}
	m.mu.Lock()
	m.sources = append(m.sources, s)
	m.mu.Unlock()
	return s
}

// CollectOnce samples every source now: the sample becomes the
// source's latest and its "_total" counters update their EWMA rates.
// It reads the sources and nothing else: the watchdog's ticker calls it
// before each evaluation, and a scrape calls it on demand.
func (m *Monitor) CollectOnce() {
	now := m.now()
	m.mu.Lock()
	sources := append([]*Source(nil), m.sources...)
	m.mu.Unlock()

	type collected struct {
		s      *Source
		sample Sample
	}
	got := make([]collected, 0, len(sources))
	for _, s := range sources {
		if sample := s.fn(); sample != nil {
			got = append(got, collected{s, sample})
		}
	}

	m.mu.Lock()
	for _, c := range got {
		s := c.s
		if s.m == nil {
			continue // unregistered while sampling
		}
		dt := 0.0
		if !s.lastT.IsZero() {
			dt = now.Sub(s.lastT).Seconds()
		}
		for k, v := range c.sample {
			if !strings.HasSuffix(k, "_total") {
				continue
			}
			e, ok := s.rates[k]
			if !ok {
				e = &ewma{}
				s.rates[k] = e
			}
			e.observe(v, dt, halfLife.Seconds())
		}
		s.last = c.sample
		s.samples++
		s.lastT = now
	}
	m.collections++
	m.lastCollect = now
	m.mu.Unlock()
}

// Collections reports how many collection passes have run.
func (m *Monitor) Collections() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.collections
}

// rateKey maps "read_bytes_total" to its exported rate name
// "read_bytes_per_sec".
func rateKey(counter string) string {
	return strings.TrimSuffix(counter, "_total") + "_per_sec"
}
