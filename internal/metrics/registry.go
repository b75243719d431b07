package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Registry is the unified metrics plane of one process: it owns the
// RPC method histograms of both wire sides, adopts every subsystem's
// counters (read path, GC, shuffle), and carries named operation
// histograms and gauges. One Snapshot captures the whole thing; the
// obs package serves snapshots over HTTP in Prometheus text and JSON.
//
// Default is the process-wide registry: services attach their stats at
// construction so tools (bsfsctl stats, the -metrics-addr endpoint)
// see every subsystem without per-call plumbing. Tests that boot many
// deployments in one process share Default; its counters are sums
// across them, which is what a per-process exporter reports anyway.
type Registry struct {
	// RPCClient and RPCServer hold the per-method histograms of all
	// outbound calls and inbound dispatches recorded in this process.
	RPCClient *RPCStats
	RPCServer *RPCStats

	mu       sync.Mutex
	reads    attached[*ReadStats, ReadSnapshot]
	gcs      attached[*GCStats, GCSnapshot]
	shuffles attached[*ShuffleStats, ShuffleSnapshot]
	ops      map[string]*Histogram
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		RPCClient: &RPCStats{},
		RPCServer: &RPCStats{},
		ops:       make(map[string]*Histogram),
		gauges:    make(map[string]func() float64),
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// attached is the registry's view of one kind of subsystem counters:
// the sets of the components alive now, plus the final counts of the
// ones that closed, folded into one retired total — so the exported
// sums stay monotonic while the registry holds no set (and scans none)
// longer than its component lives. Guarded by Registry.mu.
type attached[T interface {
	comparable
	Snapshot() S
}, S interface{ merge(S) S }] struct {
	live    []T
	retired S
}

func (a *attached[T, S]) index(s T) int {
	for i, have := range a.live {
		if have == s {
			return i
		}
	}
	return -1
}

// attach adopts s; a nil or already attached set is a no-op.
func (a *attached[T, S]) attach(s T) {
	var none T
	if s != none && a.index(s) < 0 {
		a.live = append(a.live, s)
	}
}

// release drops s, keeping its final counts; a set that is not
// attached (never was, or released already) is a no-op.
func (a *attached[T, S]) release(s T) {
	if i := a.index(s); i >= 0 {
		a.retired = a.retired.merge(s.Snapshot())
		a.live = append(a.live[:i], a.live[i+1:]...)
	}
}

// view copies a under the registry lock so sum can run outside it.
func (a *attached[T, S]) view() attached[T, S] {
	return attached[T, S]{live: append([]T(nil), a.live...), retired: a.retired}
}

// sum is the retired total plus every live set.
func (a *attached[T, S]) sum() S {
	out := a.retired
	for _, s := range a.live {
		out = out.merge(s.Snapshot())
	}
	return out
}

// AttachReadStats adopts a read-path counter set; snapshots sum every
// attached set. Attaching the same set twice is a no-op. The owner
// releases the set when it closes (ReleaseReadStats).
func (r *Registry) AttachReadStats(s *ReadStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads.attach(s)
}

// ReleaseReadStats drops a counter set whose owner closed. Its counts
// so far stay in every later snapshot; what it counts afterwards does
// not.
func (r *Registry) ReleaseReadStats(s *ReadStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads.release(s)
}

// AttachGCStats adopts a collector counter set (see AttachReadStats).
func (r *Registry) AttachGCStats(s *GCStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcs.attach(s)
}

// ReleaseGCStats drops a closed collector's set (see ReleaseReadStats).
func (r *Registry) ReleaseGCStats(s *GCStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcs.release(s)
}

// AttachShuffleStats adopts a shuffle counter set (see AttachReadStats).
func (r *Registry) AttachShuffleStats(s *ShuffleStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shuffles.attach(s)
}

// ReleaseShuffleStats drops a finished job's set (see ReleaseReadStats).
func (r *Registry) ReleaseShuffleStats(s *ShuffleStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shuffles.release(s)
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
	Read      ReadSnapshot                `json:"read"`
	GC        GCSnapshot                  `json:"gc"`
	Shuffle   ShuffleSnapshot             `json:"shuffle"`
	Ops       map[string]LatencyQuantiles `json:"ops,omitempty"`
	Gauges    map[string]float64          `json:"gauges,omitempty"`
	RPCClient map[string]MethodSnapshot   `json:"rpc_client,omitempty"`
	RPCServer map[string]MethodSnapshot   `json:"rpc_server,omitempty"`
}

// Snapshot captures every attached subsystem, summing multiple
// attached sets of the same kind.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	reads, gcs, shuffles := r.reads.view(), r.gcs.view(), r.shuffles.view()
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
		Read:      reads.sum(),
		GC:        gcs.sum(),
		Shuffle:   shuffles.sum(),
		RPCClient: r.RPCClient.Snapshot(),
		RPCServer: r.RPCServer.Snapshot(),
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

// WritePrometheus renders the snapshot in Prometheus text exposition
// format, deterministically ordered.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) {
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("blobseer_read_cache_hits_total", s.Read.Hits, "Pages served from the shared page cache.")
	counter("blobseer_read_cache_misses_total", s.Read.Misses, "Pages fetched from providers.")
	counter("blobseer_read_readahead_pages_total", s.Read.Readahead, "Pages scheduled by readahead.")
	counter("blobseer_read_cache_evictions_total", s.Read.Evictions, "Pages evicted under the cache budget.")
	counter("blobseer_read_provider_fetches_total", s.Read.ProviderFetches, "GetPage RPCs issued to providers.")
	counter("blobseer_read_provider_failures_total", s.Read.ProviderFailures, "Failed provider page fetches.")
	counter("blobseer_gc_passes_total", s.GC.Passes, "Completed reclaim passes.")
	counter("blobseer_gc_versions_collected_total", s.GC.VersionsCollected, "Versions retired by the collector.")
	counter("blobseer_gc_pages_reclaimed_total", s.GC.PagesReclaimed, "Pages deleted from providers.")
	counter("blobseer_gc_bytes_reclaimed_total", s.GC.BytesReclaimed, "Bytes reclaimed from providers.")
	counter("blobseer_shuffle_segments_appended_total", s.Shuffle.SegmentsAppended, "Map-output segments appended.")
	counter("blobseer_shuffle_segments_fetched_total", s.Shuffle.SegmentsFetched, "Map-output segments fetched by reducers.")
	counter("blobseer_shuffle_segments_recovered_total", s.Shuffle.SegmentsRecovered, "Segments served after their producing tracker died.")

	if len(s.Gauges) > 0 {
		names := make([]string, 0, len(s.Gauges))
		for k := range s.Gauges {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "# TYPE blobseer_%s gauge\nblobseer_%s %g\n", k, k, s.Gauges[k])
		}
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
		names := make([]string, 0, len(s.Ops))
		for k := range s.Ops {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			writeLatency("blobseer_op_latency_ms", fmt.Sprintf("op=%q", k), s.Ops[k])
			fmt.Fprintf(w, "blobseer_op_latency_ms_count{op=%q} %d\n", k, s.Ops[k].Count)
		}
	}

	writeSide := func(side string, methods map[string]MethodSnapshot) {
		if len(methods) == 0 {
			return
		}
		names := make([]string, 0, len(methods))
		for k := range methods {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
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

// merge sums two read snapshots.
func (a ReadSnapshot) merge(b ReadSnapshot) ReadSnapshot {
	out := ReadSnapshot{
		Hits:             a.Hits + b.Hits,
		Misses:           a.Misses + b.Misses,
		Readahead:        a.Readahead + b.Readahead,
		Evictions:        a.Evictions + b.Evictions,
		ProviderFetches:  a.ProviderFetches + b.ProviderFetches,
		ProviderFailures: a.ProviderFailures + b.ProviderFailures,
	}
	if len(a.FailedProviders)+len(b.FailedProviders) > 0 {
		out.FailedProviders = make(map[string]uint64, len(a.FailedProviders)+len(b.FailedProviders))
		for k, v := range a.FailedProviders {
			out.FailedProviders[k] += v
		}
		for k, v := range b.FailedProviders {
			out.FailedProviders[k] += v
		}
	}
	return out
}

// merge sums two GC snapshots.
func (a GCSnapshot) merge(b GCSnapshot) GCSnapshot {
	return GCSnapshot{
		Passes:            a.Passes + b.Passes,
		VersionsCollected: a.VersionsCollected + b.VersionsCollected,
		BlobsDeleted:      a.BlobsDeleted + b.BlobsDeleted,
		PagesReclaimed:    a.PagesReclaimed + b.PagesReclaimed,
		BytesReclaimed:    a.BytesReclaimed + b.BytesReclaimed,
		NodesDeleted:      a.NodesDeleted + b.NodesDeleted,
		PinsBlocked:       a.PinsBlocked + b.PinsBlocked,
		Compactions:       a.Compactions + b.Compactions,
		PassLatency:       mergeLatency(a.PassLatency, b.PassLatency),
	}
}

// merge sums two shuffle snapshots.
func (a ShuffleSnapshot) merge(b ShuffleSnapshot) ShuffleSnapshot {
	return ShuffleSnapshot{
		SegmentsAppended:  a.SegmentsAppended + b.SegmentsAppended,
		BytesAppended:     a.BytesAppended + b.BytesAppended,
		SegmentsFetched:   a.SegmentsFetched + b.SegmentsFetched,
		BytesFetched:      a.BytesFetched + b.BytesFetched,
		SegmentsRecovered: a.SegmentsRecovered + b.SegmentsRecovered,
		AppendLatency:     mergeLatency(a.AppendLatency, b.AppendLatency),
		FetchLatency:      mergeLatency(a.FetchLatency, b.FetchLatency),
	}
}

// mergeLatency combines two latency summaries count-weighted. Exact
// only for the mean; the percentiles of a sum of distributions are not
// derivable from the parts, so this is an approximation used when a
// registry has several attached stats sets of the same kind (multiple
// jobs or deployments in one process). Max stays exact.
func mergeLatency(a, b LatencyQuantiles) LatencyQuantiles {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	wa := float64(a.Count) / float64(a.Count+b.Count)
	wb := 1 - wa
	return LatencyQuantiles{
		Count:  a.Count + b.Count,
		MeanMs: a.MeanMs*wa + b.MeanMs*wb,
		P50Ms:  a.P50Ms*wa + b.P50Ms*wb,
		P90Ms:  a.P90Ms*wa + b.P90Ms*wb,
		P99Ms:  a.P99Ms*wa + b.P99Ms*wb,
		P999Ms: a.P999Ms*wa + b.P999Ms*wb,
		MaxMs:  math.Max(a.MaxMs, b.MaxMs),
	}
}
