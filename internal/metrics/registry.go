package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics plane of one process: it owns the
// RPC method histograms of both wire sides and carries named counters,
// operation histograms and gauges. One Snapshot captures the whole
// thing; the obshttp package serves snapshots over HTTP in Prometheus
// text and JSON.
//
// Default is the process-wide registry: subsystems resolve their
// counters and histograms from it once, at package init, so tools
// (bsfsctl stats, the -metrics-addr endpoint) see every subsystem
// without per-call plumbing. Tests that boot many deployments in one
// process share Default; its counters are sums across them, which is
// what a per-process exporter reports anyway, and a caller measuring
// one run brackets it with two snapshots.
type Registry struct {
	// RPCClient and RPCServer hold the per-method histograms of all
	// outbound calls and inbound dispatches recorded in this process.
	RPCClient *RPCStats
	RPCServer *RPCStats

	mu       sync.Mutex
	counters map[string]*Counter
	ops      map[string]*Histogram
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		RPCClient: &RPCStats{},
		RPCServer: &RPCStats{},
		counters:  make(map[string]*Counter),
		ops:       make(map[string]*Histogram),
		gauges:    make(map[string]func() float64),
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// Counter is a monotonic count, the counter twin of an Op histogram:
// adding is one atomic add and allocates nothing. Safe for concurrent
// use.
type Counter struct{ n atomic.Uint64 }

// Add counts n more.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Load returns the count so far.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Counter returns the named counter, creating it on first use. It is
// exported as blobseer_<name>_total. Subsystems resolve their counters
// once, at package init, and add to them inline.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Op returns the named operation-latency histogram, creating it on
// first use. Subsystems record end-to-end operation latencies here
// (e.g. "blob.append", "gc.pass") so the export plane reports p99s per
// operation, not just per RPC method.
func (r *Registry) Op(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.ops[name]
	if !ok {
		h = &Histogram{}
		r.ops[name] = h
	}
	return h
}

// OpSnapshot returns the named operation histogram's current snapshot
// without creating it: the threshold query the flight recorder's tail
// sampler and the SLO watchdog use. ok is false when no subsystem has
// recorded the operation yet.
func (r *Registry) OpSnapshot(name string) (HistogramSnapshot, bool) {
	r.mu.Lock()
	h, ok := r.ops[name]
	r.mu.Unlock()
	if !ok {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// SetGauge registers (or replaces) a named gauge read at snapshot
// time. Gauge functions must be safe to call concurrently.
func (r *Registry) SetGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.gauges, name)
		return
	}
	r.gauges[name] = fn
}

// RegistrySnapshot is one consistent-enough copy of everything the
// registry owns; it marshals directly to the /metrics.json payload.
type RegistrySnapshot struct {
	Counters  map[string]uint64           `json:"counters,omitempty"`
	Ops       map[string]LatencyQuantiles `json:"ops,omitempty"`
	Gauges    map[string]float64          `json:"gauges,omitempty"`
	RPCClient map[string]MethodSnapshot   `json:"rpc_client,omitempty"`
	RPCServer map[string]MethodSnapshot   `json:"rpc_server,omitempty"`
}

// Snapshot captures every counter, operation histogram, gauge and RPC
// method table. Each value is read individually, so a snapshot taken
// while subsystems run may be skewed by in-flight operations.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	ops := make(map[string]*Histogram, len(r.ops))
	for k, v := range r.ops {
		ops[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		RPCClient: r.RPCClient.Snapshot(),
		RPCServer: r.RPCServer.Snapshot(),
	}
	if len(counters) > 0 {
		snap.Counters = make(map[string]uint64, len(counters))
		for k, c := range counters {
			snap.Counters[k] = c.Load()
		}
	}
	if len(ops) > 0 {
		snap.Ops = make(map[string]LatencyQuantiles, len(ops))
		for k, h := range ops {
			snap.Ops[k] = h.Snapshot().Latency()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for k, fn := range gauges {
			snap.Gauges[k] = fn()
		}
	}
	return snap
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format, deterministically ordered.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) {
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "# TYPE blobseer_%s_total counter\nblobseer_%s_total %d\n", k, k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "# TYPE blobseer_%s gauge\nblobseer_%s %g\n", k, k, s.Gauges[k])
	}

	writeLatency := func(metric string, labels string, q LatencyQuantiles) {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(w, "%s{%s%squantile=\"0.5\"} %g\n", metric, labels, sep, q.P50Ms)
		fmt.Fprintf(w, "%s{%s%squantile=\"0.9\"} %g\n", metric, labels, sep, q.P90Ms)
		fmt.Fprintf(w, "%s{%s%squantile=\"0.99\"} %g\n", metric, labels, sep, q.P99Ms)
		fmt.Fprintf(w, "%s{%s%squantile=\"0.999\"} %g\n", metric, labels, sep, q.P999Ms)
	}

	if len(s.Ops) > 0 {
		fmt.Fprintf(w, "# HELP blobseer_op_latency_ms Operation latency quantiles in milliseconds.\n# TYPE blobseer_op_latency_ms summary\n")
		for _, k := range sortedKeys(s.Ops) {
			writeLatency("blobseer_op_latency_ms", fmt.Sprintf("op=%q", k), s.Ops[k])
			fmt.Fprintf(w, "blobseer_op_latency_ms_count{op=%q} %d\n", k, s.Ops[k].Count)
		}
	}

	writeSide := func(side string, methods map[string]MethodSnapshot) {
		for _, k := range sortedKeys(methods) {
			m := methods[k]
			labels := fmt.Sprintf("side=%q,method=%q", side, k)
			fmt.Fprintf(w, "blobseer_rpc_calls_total{%s} %d\n", labels, m.Calls)
			fmt.Fprintf(w, "blobseer_rpc_errors_total{%s} %d\n", labels, m.Errors)
			fmt.Fprintf(w, "blobseer_rpc_bytes_total{%s} %d\n", labels, m.Bytes)
			writeLatency("blobseer_rpc_latency_ms", labels, m.Latency)
		}
	}
	fmt.Fprintf(w, "# HELP blobseer_rpc_latency_ms Per-method RPC latency quantiles in milliseconds.\n# TYPE blobseer_rpc_latency_ms summary\n")
	writeSide("client", s.RPCClient)
	writeSide("server", s.RPCServer)
}
