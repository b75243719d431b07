// Package obshttp is the opt-in HTTP export endpoint for the
// observability plane. It lives apart from internal/obs so that only
// the binaries that actually serve metrics link net/http — obs is
// imported by every hot package, and carrying the HTTP stack there
// measurably bloats (and slows) every test and benchmark binary.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"blobseer/internal/flight"
	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

// Options configures the export endpoint beyond the bare registry.
type Options struct {
	// Registry backs /metrics and /metrics.json; nil means
	// metrics.Default.
	Registry *metrics.Registry

	// Monitor, when set, enables /cluster: each request runs one
	// CollectOnce and serves the derived cluster snapshot as JSON. A
	// scrape only reads: the watchdog's rules run on its own ticker,
	// never on a request.
	Monitor *monitor.Monitor

	// Health, when set, enables /healthz: the report is served as
	// JSON with a 503 when any component is degraded.
	Health func(context.Context) monitor.HealthReport

	// Alerts, when set, enables /alerts: the SLO watchdog's current
	// per-rule states as JSON (firing rules first). Typically
	// flight.Watchdog.Alerts.
	Alerts func() []flight.AlertState
}

// MetricsServer is the opt-in HTTP export endpoint. Routes:
//
//	/metrics       Prometheus text exposition of the registry snapshot
//	/metrics.json  the same snapshot as JSON
//	/cluster       cluster monitor snapshot as JSON (when a Monitor is wired)
//	/healthz       component health as JSON, 503 on degradation (when a Health func is wired)
//	/spans         recent trace ids, or one trace's causal tree (?trace=N)
//	/alerts        SLO watchdog rule states as JSON (when a watchdog is wired)
type MetricsServer struct {
	lis  net.Listener
	srv  *http.Server
	reg  *metrics.Registry
	coll *obs.Collector
	opts Options
}

// Serve starts the export endpoint on addr (":0" picks a free port)
// with the given options.
func Serve(addr string, opts Options) (*MetricsServer, error) {
	if opts.Registry == nil {
		opts.Registry = metrics.Default
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen %s: %w", addr, err)
	}
	m := &MetricsServer{lis: lis, reg: opts.Registry, coll: obs.Spans, opts: opts}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/metrics.json", m.handleMetricsJSON)
	mux.HandleFunc("/cluster", m.handleCluster)
	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/spans", m.handleSpans)
	mux.HandleFunc("/alerts", m.handleAlerts)
	m.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	go func() {
		if err := m.srv.Serve(lis); err != nil && err != http.ErrServerClosed {
			obs.Log.Errorf("metrics endpoint: %v", err)
		}
	}()
	return m, nil
}

// Addr returns the bound listen address.
func (m *MetricsServer) Addr() string { return m.lis.Addr().String() }

// Close stops the endpoint.
func (m *MetricsServer) Close() error { return m.srv.Close() }

func (m *MetricsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.reg.Snapshot().WritePrometheus(w)
}

func (m *MetricsServer) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.reg.Snapshot()); err != nil {
		obs.Log.Debugf("metrics endpoint: encode snapshot: %v", err)
	}
}

// handleCluster serves the cluster monitor's derived snapshot. Each
// request runs one collection pass first, so the answer is current
// with or without an armed watchdog (and rates sharpen across polls).
func (m *MetricsServer) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if m.opts.Monitor == nil {
		http.Error(w, "no cluster monitor wired", http.StatusNotFound)
		return
	}
	m.opts.Monitor.CollectOnce()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.opts.Monitor.Snapshot()); err != nil {
		obs.Log.Debugf("metrics endpoint: encode cluster snapshot: %v", err)
	}
}

func (m *MetricsServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if m.opts.Health == nil {
		http.Error(w, "no health check wired", http.StatusNotFound)
		return
	}
	rep := m.opts.Health(r.Context())
	w.Header().Set("Content-Type", "application/json")
	if !rep.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		obs.Log.Debugf("metrics endpoint: encode health report: %v", err)
	}
}

// handleAlerts serves the watchdog's per-rule states, firing first.
// The X-Alerts-Firing header carries the firing count so shell probes
// can react without parsing the body.
func (m *MetricsServer) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	if m.opts.Alerts == nil {
		http.Error(w, "no watchdog wired", http.StatusNotFound)
		return
	}
	alerts := m.opts.Alerts()
	firing := 0
	for _, a := range alerts {
		if a.State == flight.StateFiring {
			firing++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Alerts-Firing", strconv.Itoa(firing))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(alerts); err != nil {
		obs.Log.Debugf("metrics endpoint: encode alerts: %v", err)
	}
}

func (m *MetricsServer) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, m.coll.Tree(id))
		return
	}
	ids := m.coll.TraceIDs(32)
	if len(ids) == 0 {
		fmt.Fprintln(w, "no traces retained")
		return
	}
	fmt.Fprintln(w, "recent traces (newest first); fetch one with /spans?trace=<id>")
	for _, id := range ids {
		fmt.Fprintf(w, "  trace %d: %d spans\n", id, len(m.coll.Trace(id)))
	}
}
