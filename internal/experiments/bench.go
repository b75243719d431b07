package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

// BenchReport is the machine-readable result of one experiment
// scenario. Each -fig run can emit one as BENCH_<fig>.json so CI
// uploads a comparable artifact per PR and the cross-PR trajectory of
// throughput and tail latency is a file diff, not a log archaeology
// exercise.
type BenchReport struct {
	// Fig names the scenario ("write", "read", "shuffle", "gc", ...).
	Fig    string      `json:"fig"`
	Config BenchConfig `json:"config"`
	// Series carries the scenario's figure data (throughput or storage
	// curves), one entry per plotted line.
	Series []BenchSeries `json:"series,omitempty"`
	// Latency maps an operation name to its latency quantiles over the
	// run, from the process-wide registry histograms the scenario's
	// traffic recorded into (e.g. "blob.append", "shuffle.fetch").
	Latency map[string]metrics.LatencyQuantiles `json:"latency,omitempty"`
	// Extra holds scenario-specific scalars (bound ratios, overlap
	// seconds, recovered segments).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchConfig records the topology knobs that make two reports
// comparable (or not).
type BenchConfig struct {
	Nodes         int     `json:"nodes"`
	MetaProviders int     `json:"meta_providers"`
	PageSize      uint64  `json:"page_size"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	Reps          int     `json:"reps"`
	WriteDepth    int     `json:"write_depth,omitempty"`
	ReadDepth     int     `json:"read_depth,omitempty"`
	VMShards      int     `json:"vm_shards,omitempty"`
}

// BenchSeries is a metrics.Series with JSON tags.
type BenchSeries struct {
	Name   string       `json:"name"`
	XLabel string       `json:"x_label"`
	YLabel string       `json:"y_label"`
	Points []BenchPoint `json:"points"`
}

// BenchPoint is one (x, y) sample with its error-bar half-width.
type BenchPoint struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Err float64 `json:"err,omitempty"`
}

func benchConfig(cfg Config) BenchConfig {
	return BenchConfig{
		Nodes:         cfg.Nodes,
		MetaProviders: cfg.MetaProviders,
		PageSize:      cfg.BlockSize,
		BandwidthMBps: cfg.Bandwidth / (1 << 20),
		Reps:          cfg.Reps,
		WriteDepth:    cfg.WriteDepth,
		ReadDepth:     cfg.ReadDepth,
		VMShards:      cfg.VMShards,
	}
}

// benchSeries converts figure series, skipping nils.
func benchSeries(in ...*metrics.Series) []BenchSeries {
	out := make([]BenchSeries, 0, len(in))
	for _, s := range in {
		if s == nil {
			continue
		}
		bs := BenchSeries{Name: s.Name, XLabel: s.XLabel, YLabel: s.YLabel}
		for _, p := range s.Points {
			bs.Points = append(bs.Points, BenchPoint{X: p.X, Y: p.Y, Err: p.Err})
		}
		out = append(out, bs)
	}
	return out
}

// benchRun brackets one scenario: it snapshots the named registry
// operation histograms at start so latencies() reports only what the
// scenario itself recorded, even when several scenarios share the
// process (tests, -fig all).
type benchRun struct {
	before map[string]metrics.HistogramSnapshot
}

func startBenchRun(ops ...string) *benchRun {
	r := &benchRun{before: make(map[string]metrics.HistogramSnapshot, len(ops))}
	for _, op := range ops {
		r.before[op] = metrics.Default.Op(op).Snapshot()
	}
	return r
}

// latencies returns the quantiles of each bracketed op, omitting ops
// the scenario never exercised.
func (r *benchRun) latencies() map[string]metrics.LatencyQuantiles {
	out := make(map[string]metrics.LatencyQuantiles)
	for op, prev := range r.before {
		if d := metrics.Default.Op(op).Snapshot().Sub(prev); d.Count > 0 {
			out[op] = d.Latency()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
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

// WriteBench writes the report to dir/BENCH_<fig>.json and returns the
// path.
func WriteBench(dir string, rep *BenchReport) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Fig+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// BenchWrite runs the Figure 3 concurrent-append sweep and packages it
// with the client-side append latency distribution.
func BenchWrite(cfg Config, clients []int) (*BenchReport, *metrics.Series, error) {
	run := startBenchRun("blob.append", "blob.write")
	s, err := Fig3(cfg, clients)
	if err != nil {
		return nil, nil, err
	}
	rep := &BenchReport{
		Fig:     "write",
		Config:  benchConfig(cfg.withDefaults()),
		Series:  benchSeries(s),
		Latency: run.latencies(),
	}
	return rep, s, nil
}

// BenchRead runs the Figure 4 readers-under-appenders sweep and
// packages it with the read latency distribution.
func BenchRead(cfg Config, appenders []int) (*BenchReport, *metrics.Series, error) {
	run := startBenchRun("blob.pageview", "blob.read", "blob.append")
	s, err := Fig4(cfg, appenders)
	if err != nil {
		return nil, nil, err
	}
	rep := &BenchReport{
		Fig:     "read",
		Config:  benchConfig(cfg.withDefaults()),
		Series:  benchSeries(s),
		Latency: run.latencies(),
	}
	return rep, s, nil
}

// BenchShuffle runs the shuffle-backend comparison and packages it with
// the segment append and fetch latency distributions.
func BenchShuffle(cfg Config) (*BenchReport, *ShuffleResult, error) {
	run := startBenchRun("blob.append", "blob.read", "shuffle.append", "shuffle.fetch")
	res, err := Shuffle(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &BenchReport{
		Fig:    "shuffle",
		Config: benchConfig(cfg.withDefaults()),
		Series: benchSeries(res.TimeMemory, res.TimeBlob, res.RerunsMemory, res.RerunsBlob),
		Extra: map[string]float64{
			"blob_overlap_sec": res.BlobOverlapSec,
			"blob_recovered":   float64(res.BlobRecovered),
		},
		Latency: run.latencies(),
	}, res, nil
}

// BenchGC runs the storage-lifecycle scenario and packages it with the
// reclaim pass latency distribution.
func BenchGC(cfg Config) (*BenchReport, *GCResult, error) {
	run := startBenchRun("gc.pass")
	res, err := GC(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &BenchReport{
		Fig:    "gc",
		Config: benchConfig(cfg.withDefaults()),
		Series: benchSeries(res.OverwriteGC, res.OverwriteNoGC, res.RotateGC, res.RotateNoGC),
		Extra: map[string]float64{
			"overwrite_bound_ratio": res.OverwriteBoundRatio,
			"rotate_bound_ratio":    res.RotateBoundRatio,
			"gc_passes":             float64(res.Collector["gc_passes"]),
			"pages_reclaimed":       float64(res.Collector["gc_pages_reclaimed"]),
		},
		Latency: run.latencies(),
	}, res, nil
}

// BenchMeta runs the metadata-plane scenario (shard scaling, failover,
// cold recovery) and flattens its headline numbers into a comparable
// report, alongside the raw MetaResult the scenario already emits.
func BenchMeta(cfg Config) (*BenchReport, *MetaResult, error) {
	run := startBenchRun("blob.append")
	res, err := Meta(cfg)
	if err != nil {
		return nil, nil, err
	}
	scaling := &metrics.Series{Name: "publish ops/s", XLabel: "vm shards", YLabel: "ops/s"}
	for _, p := range res.Scaling {
		scaling.Add(float64(p.Shards), p.OpsPerSec, 0)
	}
	return &BenchReport{
		Fig:    "meta",
		Config: benchConfig(cfg.withDefaults()),
		Series: benchSeries(scaling),
		Extra: map[string]float64{
			"failover_lost_writes":     float64(res.Failover.LostWrites),
			"failover_acked_total":     float64(res.Failover.AckedTotal),
			"recovery_records":         float64(res.Recovery.Records),
			"recovery_replay_ms":       res.Recovery.ReplayMS,
			"recovery_versions_served": float64(res.Recovery.Versions),
		},
		Latency: run.latencies(),
	}, res, nil
}

// BenchIncident runs the flight-recorder incident drill and packages
// the alerting/replay verdicts with the append latency distribution;
// the scenario itself enforces the acceptance checks (fire within the
// collection budget, hysteresis clear, replay brackets the kill), so a
// report existing at all means the drill passed.
func BenchIncident(cfg Config) (*BenchReport, *IncidentResult, error) {
	run := startBenchRun("blob.append", "blob.read")
	res, err := Incident(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &BenchReport{
		Fig:    "incident",
		Config: benchConfig(cfg.withDefaults()),
		Extra: map[string]float64{
			"outage_ms":               res.OutageMS,
			"fire_delay_ms":           res.FireDelayMS,
			"fire_collections":        float64(res.FireCollections),
			"clear_evals":             float64(res.ClearEvals),
			"replay_events":           float64(res.ReplayEvents),
			"replay_traces":           float64(res.ReplayTraces),
			"replay_slow_trace_spans": float64(res.ReplaySlowTraceSpans),
			"replay_snapshots":        float64(res.ReplaySnapshots),
			"snapshots_before_kill":   float64(res.SnapshotsBeforeKill),
			"snapshots_after_restart": float64(res.SnapshotsAfterRestart),
			"alert_fires":             float64(res.AlertFires),
			"alert_clears":            float64(res.AlertClears),
			"health_transitions":      float64(res.HealthTransitions),
		},
		Latency: run.latencies(),
	}
	return rep, res, nil
}

// TraceAppend boots a fresh deployment, runs ONE traced append and
// read-back against it, and returns the rendered causal span tree:
// the client's blob.append with its merge/pages/commit stages, each
// rpc:* client span, and the serve:* spans stitched in from the
// version-manager and provider processes by the trace context the
// frames carried. This is the observability acceptance demo — one
// append explained end to end across processes.
func TraceAppend(ctx context.Context, cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	env, err := newBSFSEnv(cfg)
	if err != nil {
		return "", err
	}
	defer env.Close()

	hosts := env.cluster.ProviderHosts()
	c := env.cluster.Client(hosts[0])
	defer c.Close()
	bl, err := c.Create(ctx, cfg.BlockSize)
	if err != nil {
		return "", err
	}

	tctx, root := obs.StartTrace(ctx, "append.sample")
	data := chunk(cfg, 0)
	wr, err := bl.Append(tctx, data)
	if err != nil {
		root.End(err)
		return "", err
	}
	if _, err := bl.WaitPublished(tctx, wr.Ver); err != nil {
		root.End(err)
		return "", err
	}
	buf := make([]byte, len(data))
	if _, err := bl.ReadAtInto(tctx, wr.Ver, 0, buf); err != nil {
		root.End(err)
		return "", err
	}
	root.End(nil)

	trace, _, ok := obs.SpanIDs(tctx)
	if !ok {
		return "", fmt.Errorf("trace context lost")
	}
	return obs.Spans.Tree(trace), nil
}
