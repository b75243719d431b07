// Package monitor is the cluster-scope introspection plane: where
// internal/metrics counts what one process did, monitor watches what
// the *deployment* is doing right now. Every component registers a
// stats source — data providers (bytes used, page read/write traffic),
// version-manager shards (journal growth, publish rates), the
// namespace manager, and client mounts (cache + read stats) — and a
// collector samples them on an interval, keeping each source's latest
// sample and deriving EWMA byte/IOPS rates, per-provider utilization
// against the modeled NIC, per-shard journal lag, and a
// replica-imbalance score across providers. The derived view is served
// on internal/obshttp's /cluster endpoint, rendered by `bsfsctl top`,
// and judged by the flight watchdog's rules.
//
// Collection is pull-based and cheap (reading atomic counters), so an
// unarmed monitor costs nothing and an armed one costs a few map walks
// per interval. All methods are safe for concurrent use.
package monitor

import (
	"strings"
	"sync"
	"sync/atomic"
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

// Defaults.
const (
	DefaultInterval = time.Second
	// DefaultHalfLife smooths rates: a burst fully registers within a
	// few collections and an idle source's rate halves every half-life.
	DefaultHalfLife = 5 * time.Second
)

// Config sizes a Monitor.
type Config struct {
	// Interval is the collection cadence used by SetInterval(0)...Start
	// and the freshness unit of Fresh (default 1s).
	Interval time.Duration
	// HalfLife smooths the EWMA rates (default 5s).
	HalfLife time.Duration
	// NICBandwidth is the modeled per-host NIC capacity in bytes/s that
	// provider utilization is computed against (0 = unknown; utilization
	// reads 0). Deployments on a simnet-shaped transport pass the
	// simnet bandwidth here.
	NICBandwidth float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	return c
}

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
	cfg Config

	// now is injectable for deterministic rate/freshness tests.
	now func() time.Time

	mu          sync.Mutex
	sources     []*Source
	collections uint64
	lastCollect time.Time

	// onCollect holds post-collection hooks (the SLO watchdog's
	// evaluation pass) as an immutable slice; CollectOnce runs them
	// after releasing mu, so hooks may call Snapshot freely.
	hookMu    sync.Mutex
	onCollect atomic.Value // []collectHook
	hookNext  uint64

	runMu   sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// collectHook is one registered post-collection callback.
type collectHook struct {
	id uint64
	fn func()
}

// OnCollect registers fn to run after every collection pass (periodic
// or CollectOnce), outside the monitor's lock — the evaluation hook
// the SLO watchdog hangs its rules on. The returned cancel removes it.
func (m *Monitor) OnCollect(fn func()) (cancel func()) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.hookNext++
	id := m.hookNext
	var cur []collectHook
	if v := m.onCollect.Load(); v != nil {
		cur = v.([]collectHook)
	}
	next := make([]collectHook, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, collectHook{id: id, fn: fn})
	m.onCollect.Store(next)
	return func() {
		m.hookMu.Lock()
		defer m.hookMu.Unlock()
		var have []collectHook
		if v := m.onCollect.Load(); v != nil {
			have = v.([]collectHook)
		}
		pruned := make([]collectHook, 0, len(have))
		for _, h := range have {
			if h.id != id {
				pruned = append(pruned, h)
			}
		}
		m.onCollect.Store(pruned)
	}
}

// New returns an idle monitor: sources can register and CollectOnce
// works immediately; SetInterval arms periodic collection.
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), now: time.Now}
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

// SetInterval arms periodic collection every d (rounded up to the
// configured interval's floor of 10ms); 0 or negative stops it.
func (m *Monitor) SetInterval(d time.Duration) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if m.stop != nil {
		close(m.stop)
		// runMu exists to serialize rearms; the wait is bounded because
		// the closed stop channel makes the collector goroutine exit at
		// its next select, and collection itself never takes runMu.
		//lint:lockhold rearm serialization is runMu's whole purpose; the closed stop channel bounds the wait to one select turn
		<-m.stopped
		m.stop, m.stopped = nil, nil
	}
	if d <= 0 {
		return
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	m.cfg.Interval = d
	stop := make(chan struct{})
	stopped := make(chan struct{})
	m.stop, m.stopped = stop, stopped
	go func() {
		defer close(stopped)
		//lint:walltime the collection cadence is wall-clock by design; CollectOnce is the injectable seam tests drive
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.CollectOnce()
			}
		}
	}()
}

// Close stops periodic collection.
func (m *Monitor) Close() { m.SetInterval(0) }

// Armed reports the periodic collection interval, false when no
// collector goroutine is running (CollectOnce-only operation).
func (m *Monitor) Armed() (time.Duration, bool) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if m.stop == nil {
		return 0, false
	}
	return m.cfg.Interval, true
}

// CollectOnce samples every source now: the sample becomes the
// source's latest and its "_total" counters update their EWMA rates.
// Callable directly (tools, tests) whether or not the periodic
// collector is armed.
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
			e.observe(v, dt, m.cfg.HalfLife.Seconds())
		}
		s.last = c.sample
		s.samples++
		s.lastT = now
	}
	m.collections++
	m.lastCollect = now
	m.mu.Unlock()

	if v := m.onCollect.Load(); v != nil {
		for _, h := range v.([]collectHook) {
			h.fn()
		}
	}
}

// Fresh reports whether the last collection happened within the given
// window (the /healthz "collector fresh within 2 intervals" check).
// A monitor that never collected is not fresh.
func (m *Monitor) Fresh(within time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastCollect.IsZero() {
		return false
	}
	return m.now().Sub(m.lastCollect) <= within
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
