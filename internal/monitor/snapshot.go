package monitor

import (
	"sort"
	"strings"
	"time"
)

// ComponentSnapshot is one source's current view: its latest raw gauges,
// the EWMA per-second rates derived from its "_total" counters, and for
// providers the NIC utilization in [0, 1+] (can exceed 1 briefly when a
// burst outruns the modeled bandwidth between collections).
type ComponentSnapshot struct {
	Kind   string             `json:"kind"`
	Name   string             `json:"name"`
	Gauges map[string]float64 `json:"gauges,omitempty"`
	Rates  map[string]float64 `json:"rates,omitempty"`
	// Utilization is max(read rate, write rate) / NIC bandwidth for
	// providers; simnet NICs are full-duplex so the directions don't
	// share capacity. Zero for other kinds or when bandwidth is unknown.
	Utilization float64 `json:"utilization,omitempty"`
	// Samples is how many collections this source has answered.
	Samples int `json:"samples"`
}

// ClusterSnapshot is the monitor's derived cluster view, served on
// /cluster and rendered by `bsfsctl top`.
type ClusterSnapshot struct {
	// Collections counts collector passes; AgeMs is milliseconds since
	// the last one (-1 if never collected).
	Collections uint64 `json:"collections"`
	AgeMs       int64  `json:"age_ms"`

	Components []ComponentSnapshot `json:"components"`

	// ReplicaImbalance is max/mean of per-provider read byte rates:
	// 1.0 is a perfectly balanced read load, N means the hottest
	// provider carries N times the average. Zero when no provider is
	// serving reads.
	ReplicaImbalance float64 `json:"replica_imbalance"`

	// MaxJournalLag is the largest per-shard journal_pending gauge:
	// records not yet retired by a metadata checkpoint.
	MaxJournalLag float64 `json:"max_journal_lag"`
}

// Snapshot derives the cluster view from each source's latest sample
// and rate trackers as of the last collection.
func (m *Monitor) Snapshot() ClusterSnapshot {
	m.mu.Lock()
	snap := ClusterSnapshot{
		Collections: m.collections,
		AgeMs:       -1,
	}
	if !m.lastCollect.IsZero() {
		snap.AgeMs = m.now().Sub(m.lastCollect).Milliseconds()
		if snap.AgeMs < 0 {
			snap.AgeMs = 0
		}
	}
	var readRates []float64
	for _, s := range m.sources {
		cs := ComponentSnapshot{
			Kind:    s.kind,
			Name:    s.name,
			Samples: s.samples,
		}
		if len(s.last) > 0 {
			cs.Gauges = make(map[string]float64, len(s.last))
			for k, v := range s.last {
				if !strings.HasSuffix(k, "_total") {
					cs.Gauges[k] = v
				}
			}
			if len(cs.Gauges) == 0 {
				cs.Gauges = nil
			}
		}
		if len(s.rates) > 0 {
			cs.Rates = make(map[string]float64, len(s.rates))
			for k, e := range s.rates {
				cs.Rates[rateKey(k)] = e.rate
			}
		}
		if s.kind == KindProvider {
			r := cs.Rates[rateKey(KeyReadBytes)]
			w := cs.Rates[rateKey(KeyWriteBytes)]
			readRates = append(readRates, r)
			if m.nicBandwidth > 0 {
				util := r
				if w > util {
					util = w
				}
				cs.Utilization = util / m.nicBandwidth
			}
		}
		if s.kind == KindVMShard {
			if lag, ok := s.last[KeyJournalPending]; ok && lag > snap.MaxJournalLag {
				snap.MaxJournalLag = lag
			}
		}
		snap.Components = append(snap.Components, cs)
	}
	m.mu.Unlock()

	sort.Slice(snap.Components, func(i, j int) bool {
		a, b := snap.Components[i], snap.Components[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})

	if len(readRates) > 0 {
		var sum, max float64
		for _, r := range readRates {
			sum += r
			if r > max {
				max = r
			}
		}
		if sum > 0 {
			snap.ReplicaImbalance = max / (sum / float64(len(readRates)))
		}
	}
	return snap
}

// ComponentHealth is one component's health verdict with a short
// human-readable detail on failure and the wall time its check took.
type ComponentHealth struct {
	Component string  `json:"component"`
	Healthy   bool    `json:"healthy"`
	Detail    string  `json:"detail,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
}

// HealthReport aggregates component checks; Healthy is the AND of all
// components. Served (with a 503 on degradation) by /healthz.
type HealthReport struct {
	Healthy    bool              `json:"healthy"`
	CheckedAt  time.Time         `json:"checked_at"`
	Components []ComponentHealth `json:"components"`
}

// AddTimed records one component verdict and the time its check took,
// and folds the verdict into the aggregate.
func (r *HealthReport) AddTimed(component string, healthy bool, detail string, took time.Duration) {
	if !healthy {
		r.Healthy = false
	}
	r.Components = append(r.Components, ComponentHealth{
		Component: component,
		Healthy:   healthy,
		Detail:    detail,
		LatencyMs: float64(took.Nanoseconds()) / 1e6,
	})
}
